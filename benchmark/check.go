package benchmark

import (
	"fmt"
	"runtime"
	"sync"

	"repro/engine"
	"repro/internal/storage"
)

// verify checks every answer against the reference engine over refStore, a
// store loaded from the same data seed that has seen none of the run. The
// run's append batches are replayed into it in issue order; an answer is
// right when it equals the reference at some append count in the
// statement's lo..hi window. It returns the number of wrong answers among
// the statements that did not fail outright.
func verify(refStore *storage.Store, seed int64, data dataInfo, queries []obs, appends int) (wrong int, err error) {
	ref := engine.OpenWithStore(refStore, referenceConfig())
	defer ref.Close()

	need := make([]map[string]digest, appends+1) // append count → sql → reference digest
	for _, q := range queries {
		if q.err != nil {
			continue
		}
		for k := q.lo; k <= q.hi; k++ {
			if need[k] == nil {
				need[k] = map[string]digest{}
			}
			need[k][q.sql] = digest{}
		}
	}
	for k := 0; k <= appends; k++ {
		if k > 0 {
			if err := refStore.Append(ingestTable, ingestBatch(seed, data, k-1)); err != nil {
				return 0, fmt.Errorf("benchmark: reference append %d: %w", k-1, err)
			}
		}
		if err := answerAll(ref, need[k]); err != nil {
			return 0, err
		}
	}
	for _, q := range queries {
		if q.err != nil {
			continue
		}
		ok := false
		for k := q.lo; k <= q.hi && !ok; k++ {
			ok = need[k][q.sql] == q.sum
		}
		if !ok {
			wrong++
		}
	}
	return wrong, nil
}

// answerAll fills want with the reference digest of every statement in it,
// one serial reference query per core at a time.
func answerAll(ref *engine.Engine, want map[string]digest) error {
	pending := make([]string, 0, len(want))
	for sql := range want {
		pending = append(pending, sql)
	}
	sqls := make(chan string)
	var (
		mu    sync.Mutex
		first error
		wg    sync.WaitGroup
	)
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sql := range sqls {
				res, err := ref.Query(sql)
				var sum digest
				if err == nil {
					sum = digestRows(res.Rows)
				}
				mu.Lock()
				if err != nil && first == nil {
					first = fmt.Errorf("benchmark: reference engine on %q: %w", sql, err)
				}
				want[sql] = sum
				mu.Unlock()
			}
		}()
	}
	for _, sql := range pending {
		sqls <- sql
	}
	close(sqls)
	wg.Wait()
	return first
}
