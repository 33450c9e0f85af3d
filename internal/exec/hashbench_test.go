package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/memctl"
	"repro/internal/types"
	"repro/internal/vec"
)

// benchInput yields batches in a cycle until n batches have been pulled,
// calling start on the first pull: a benchmark passes b.ResetTimer, so the
// timed section begins when the operator has finished its set-up (the join
// build) and starts pulling the measured input.
type benchInput struct {
	batches []*vec.Batch
	n       int
	pulled  int
	start   func()
}

func (it *benchInput) NextBatch() (*vec.Batch, error) {
	if it.pulled == 0 && it.start != nil {
		it.start()
	}
	if it.pulled == it.n {
		return nil, nil
	}
	it.pulled++
	return it.batches[(it.pulled-1)%len(it.batches)], nil
}

// hashBenchBatches builds nb batches of batchRows rows over columns
// (BIGINT key, VARCHAR key, DOUBLE value); the int key is drawn from
// [0, intKeys) and the string key from 8 values.
func hashBenchBatches(rng *rand.Rand, nb, batchRows int, intKeys int64) []*vec.Batch {
	out := make([]*vec.Batch, nb)
	for i := range out {
		ks, ss, vs := make([]types.Value, batchRows), make([]types.Value, batchRows), make([]types.Value, batchRows)
		for r := range ks {
			ks[r] = types.Int(rng.Int63n(intKeys))
			ss[r] = types.String(fmt.Sprintf("s%d", rng.Intn(8)))
			vs[r] = types.Float(rng.Float64())
		}
		out[i] = vec.NewDense([][]types.Value{ks, ss, vs}, batchRows)
	}
	return out
}

// BenchmarkHashJoinProbe times the probe side of an inner hash join on a
// two-column key (BIGINT, VARCHAR): 4,096 build rows over 2,048 distinct
// int keys, probed by 1,024-row batches whose int keys span 8,192 values,
// so about one probe row in four matches. The build runs before the timer
// starts. It reports ns per probe row at 1 and 2 build shards.
func BenchmarkHashJoinProbe(b *testing.B) {
	const batchRows = 1024
	k := expr.NewColumn("k", types.KindInt64)
	s := expr.NewColumn("s", types.KindString)
	layout := map[expr.ColumnID]int{k.ID: 0, s.ID: 1}
	rng := rand.New(rand.NewSource(7))
	build := hashBenchBatches(rng, 4, batchRows, 2048)
	probe := hashBenchBatches(rng, 64, batchRows, 8192)
	for _, shards := range []int{1, 2} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			keys := func() []*batchEvaluator {
				out := make([]*batchEvaluator, 2)
				for i, c := range []*expr.Column{k, s} {
					ev, err := newBatchEvaluator(expr.Ref(c), layout)
					if err != nil {
						b.Fatal(err)
					}
					out[i] = ev
				}
				return out
			}
			it := &hashJoinIter{
				kind: logical.InnerJoin,
				left: &benchInput{batches: probe, n: b.N, start: b.ResetTimer}, right: &batchesIter{batches: build},
				leftKeys: keys(), rightKeys: keys(), leftWidth: 3, rightWidth: 3,
				batchSize: batchRows, m: &Metrics{}, workers: shards, pool: NewWorkerPool(shards),
				tracker: memctl.NewPool(0, "").NewTracker("bench"),
			}
			for {
				out, err := it.NextBatch()
				if err != nil {
					b.Fatal(err)
				}
				if out == nil {
					break
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batchRows), "ns/probe-row")
		})
	}
}

// BenchmarkGroupByKeyed times a keyed hash aggregation, consume and emit,
// of SUM(v) and COUNT(*) grouped by (BIGINT, VARCHAR) over 1,024-row
// batches whose keys form about 8,000 groups. It reports ns per grouped
// row at 1 and 2 shards.
func BenchmarkGroupByKeyed(b *testing.B) {
	const batchRows = 1024
	k := expr.NewColumn("k", types.KindInt64)
	s := expr.NewColumn("s", types.KindString)
	v := expr.NewColumn("v", types.KindFloat64)
	layout := map[expr.ColumnID]int{k.ID: 0, s.ID: 1, v.ID: 2}
	aggs := []logical.AggAssign{
		{Col: expr.NewColumn("sum_v", types.KindFloat64), Agg: expr.AggCall{Fn: expr.AggSum, Arg: expr.Ref(v)}},
		{Col: expr.NewColumn("n", types.KindInt64), Agg: expr.AggCall{Fn: expr.AggCountStar}},
	}
	batches := hashBenchBatches(rand.New(rand.NewSource(11)), 64, batchRows, 1000)
	for _, shards := range []int{1, 2} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			spec := newAggInputSpec(aggs, layout, false)
			tracker := memctl.NewPool(0, "").NewTracker("bench")
			accs := make([]*groupAccumulator, shards)
			for p := range accs {
				acc, err := newGroupAccumulator(spec, []int{0, 1}, tracker, "")
				if err != nil {
					b.Fatal(err)
				}
				accs[p] = acc
			}
			it := &groupByIter{
				in: &benchInput{batches: batches, n: b.N, start: b.ResetTimer}, keyIdx: []int{0, 1},
				accs: accs, pool: NewWorkerPool(shards), batchSize: batchRows, m: &Metrics{},
			}
			for {
				out, err := it.NextBatch()
				if err != nil {
					b.Fatal(err)
				}
				if out == nil {
					break
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batchRows), "ns/grouped-row")
		})
	}
}
