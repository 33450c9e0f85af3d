package exec

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/types"
	"repro/internal/vec"
)

// batchesIter yields fixed batches, then err (nil: EOF), counting pulls.
type batchesIter struct {
	batches []*vec.Batch
	pulled  int
	err     error
}

func (it *batchesIter) NextBatch() (*vec.Batch, error) {
	if it.pulled == len(it.batches) {
		return nil, it.err
	}
	it.pulled++
	return it.batches[it.pulled-1], nil
}

// shardInput builds nb one-column batches whose active rows hold the global
// input indices 0…N−1 in order, cycling through dense batches, empty
// batches (dense and under an empty selection) and selection batches whose
// inactive physical rows hold -1.
func shardInput(nb int) (batches []*vec.Batch, n int64) {
	for k := 0; k < nb; k++ {
		switch k % 4 {
		case 0:
			col := make([]types.Value, 5)
			for i := range col {
				col[i] = types.Int(n)
				n++
			}
			batches = append(batches, vec.NewDense([][]types.Value{col}, 5))
		case 1:
			batches = append(batches, vec.NewDense([][]types.Value{nil}, 0))
		case 2:
			col := make([]types.Value, 8)
			sel := []int{1, 3, 4, 6}
			for i := range col {
				col[i] = types.Int(-1)
			}
			for _, r := range sel {
				col[r] = types.Int(n)
				n++
			}
			batches = append(batches, &vec.Batch{Cols: [][]types.Value{col}, Sel: sel, N: 8})
		case 3:
			col := []types.Value{types.Int(-1), types.Int(-1), types.Int(-1)}
			batches = append(batches, &vec.Batch{Cols: [][]types.Value{col}, Sel: []int{}, N: 3})
		}
	}
	return batches, n
}

func TestDrainShards(t *testing.T) {
	errConsume := errors.New("consumer failed")
	errInput := errors.New("input failed")
	for _, tc := range []struct {
		name      string
		shards    int
		failShard int // shard whose consumer fails on its first batch; -1: none
		inputErr  error
	}{
		{"one shard", 1, -1, nil},
		{"three shards", 3, -1, nil},
		{"one shard consumer error", 1, 0, nil},
		{"three shards consumer error", 3, 1, nil},
		{"one shard input error", 1, -1, errInput},
		{"three shards input error", 3, -1, errInput},
	} {
		t.Run(tc.name, func(t *testing.T) {
			batches, total := shardInput(400)
			in := &batchesIter{batches: batches, err: tc.inputErr}
			m := &Metrics{}
			preps := 0
			prep := func(b *vec.Batch, hashes []uint64) int {
				preps++
				if len(hashes) != b.Len() {
					t.Errorf("%d hash slots for a %d-row batch", len(hashes), b.Len())
				}
				b.HashColumns([]int{0}, hashes)
				return b.Len()
			}
			// seen[p] records shard p's global indices in arrival order; it
			// is written only by shard p's goroutine until the drain returns.
			seen := make([][]int64, tc.shards)
			shard := func(p int) func(shardBatch[int]) error {
				return func(sb shardBatch[int]) error {
					if p == tc.failShard {
						return errConsume
					}
					if sb.aux != sb.b.Len() {
						return fmt.Errorf("shard %d got aux %d for a %d-row batch", p, sb.aux, sb.b.Len())
					}
					if (sb.rows == nil) != (tc.shards == 1) {
						return fmt.Errorf("shard %d: rows nil = %v with %d shards", p, sb.rows == nil, tc.shards)
					}
					for j := 0; j < sb.count(); j++ {
						i := sb.row(j)
						v := sb.b.Value(0, i).I
						if v != sb.base+int64(i) {
							return fmt.Errorf("shard %d: row %d holds %d, base+row = %d", p, i, v, sb.base+int64(i))
						}
						h := vec.HashKey([]types.Value{types.Int(v)})
						if sb.hashes[i] != h {
							return fmt.Errorf("row %d: consumer got hash %x, prep computed %x", v, sb.hashes[i], h)
						}
						if tc.shards > 1 && h%uint64(tc.shards) != uint64(p) {
							return fmt.Errorf("row %d reached shard %d, not its hash's", v, p)
						}
						seen[p] = append(seen[p], v)
					}
					return nil
				}
			}
			err := drainShards(in, tc.shards, NewWorkerPool(2), m, prep, shard)
			// Every shard goroutine has exited: under -race, a straggler
			// touching seen would race with these writes.
			for p := range seen {
				seen[p] = append(seen[p], -1)
				seen[p] = seen[p][:len(seen[p])-1]
			}
			switch {
			case tc.failShard >= 0:
				if !errors.Is(err, errConsume) {
					t.Fatalf("err = %v, want the consumer's", err)
				}
				if in.pulled == len(batches) {
					t.Fatalf("reader pulled all %d batches after a consumer error", in.pulled)
				}
				return
			case tc.inputErr != nil:
				if !errors.Is(err, tc.inputErr) {
					t.Fatalf("err = %v, want the input's", err)
				}
				return
			case err != nil:
				t.Fatal(err)
			}
			if m.RowsProcessed != total {
				t.Errorf("RowsProcessed = %d, want %d", m.RowsProcessed, total)
			}
			if want := len(batches) / 2; preps != want {
				t.Errorf("prep ran %d times, want once per non-empty batch (%d)", preps, want)
			}
			got := make([]bool, total)
			for p, vs := range seen {
				for k, v := range vs {
					if k > 0 && v <= vs[k-1] {
						t.Fatalf("shard %d: row %d arrived after row %d", p, v, vs[k-1])
					}
					if got[v] {
						t.Fatalf("row %d reached two shards", v)
					}
					got[v] = true
				}
			}
			for v, ok := range got {
				if !ok {
					t.Fatalf("row %d reached no shard", v)
				}
			}
		})
	}
}
