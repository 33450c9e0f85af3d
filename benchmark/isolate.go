package benchmark

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/engine"
	"repro/internal/binder"
	"repro/internal/optimizer"
	"repro/internal/service"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/tpcds"
)

// maxIsolated caps the statements of one isolation pass.
const maxIsolated = 500

var factTables = []string{"store_sales", "store_returns", "catalog_sales", "web_sales", "web_returns"}

// isolation holds the exact counts of the serial isolation pass (T2); its
// timings are spans in the tracer.
type isolation struct {
	statements, rows, wireBytes                          int64
	rulesFired, rowsProcessed, hashRows, pipelineBatches int64
	fusedPipelines, maskPrefixHits                       int64
	decodedBytes, appendedRows                           int64
}

// isolate times each layer's public entry on its own, one statement at a
// time, the way Engine.plan chains them: sql.Parse → Binder.Bind →
// optimizer.Optimize → Prepared.Run on a non-sharing engine over the same
// store → the wire encoding of the answer → its decoding. It takes whole
// rounds of stmts, so that every pass has the workload's mix, and stops at
// the cap or when budget is spent (after at least one round). Then it
// decodes every fact table once and appends a few batches to an empty store.
func isolate(tr *tracer, st *storage.Store, w *workload, seed int64, data dataInfo, stmts []string, budget time.Duration) (*isolation, error) {
	iso := &isolation{}
	eng := engine.OpenWithStore(st, isolationConfig())
	defer eng.Close()
	bnd := binder.New(st.Catalog())
	start := time.Now()
	for lo := 0; lo+w.round <= len(stmts) && lo+w.round <= maxIsolated; lo += w.round {
		if lo > 0 && time.Since(start) > budget {
			break
		}
		for i, text := range stmts[lo : lo+w.round] {
			if err := iso.statement(tr, eng, bnd, stmtID(w.name, "t2", lo+i), text); err != nil {
				return nil, err
			}
		}
	}
	if iso.statements == 0 {
		return nil, fmt.Errorf("benchmark: isolation pass of %s got %d statements, fewer than one round of %d", w.name, len(stmts), w.round)
	}

	for _, table := range factTables {
		var m storage.Metrics
		tab, _ := st.Catalog().Table(table)
		cols := make([]string, len(tab.Columns))
		for i, c := range tab.Columns {
			cols[i] = c.Name
		}
		parts, err := st.ScanPartitions(table, cols, nil, &m)
		if err != nil {
			return nil, err
		}
		sp := tr.begin("storage.decode", table, 0)
		for _, p := range parts {
			if _, err := p.DecodeColumns(cols); err != nil {
				return nil, err
			}
		}
		tr.end(sp)
		iso.decodedBytes += m.BytesScanned
	}

	// Appends go to a store and catalog of their own: the run's store must
	// see only the batches the load generator sent.
	scratch := storage.NewStore(tpcds.NewCatalog())
	for k := 0; k < 8; k++ {
		rows := ingestBatch(seed, data, k)
		sp := tr.begin("storage.append", fmt.Sprint(k), 0)
		err := scratch.Append(ingestTable, rows)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		iso.appendedRows += int64(len(rows))
	}
	return iso, nil
}

func (iso *isolation) statement(tr *tracer, eng *engine.Engine, bnd *binder.Binder, id, text string) error {
	root := tr.begin("stmt", id, 0)
	defer tr.end(root)

	sp := tr.begin("sql.parse", id, root)
	ast, err := sql.Parse(text)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("binder.bind", id, root)
	plan, _, err := bnd.Bind(ast)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("optimizer.optimize", id, root)
	optimizer.Optimize(plan, optimizer.Options{EnableFusion: true, MaxIterations: 10, Required: plan.Schema()})
	tr.end(sp)

	prepared, err := eng.Prepare(text) // plans again, untimed: Run needs the engine's own plan
	if err != nil {
		return err
	}
	sp = tr.begin("exec.run", id, root)
	res, err := prepared.Run()
	tr.end(sp)
	if err != nil {
		return err
	}

	sp = tr.begin("wire.encode", id, root)
	resp := service.Response{OK: true, Columns: res.Columns, Rows: make([][]service.WireValue, len(res.Rows)),
		Metrics: &service.ResultMetrics{BytesScanned: res.Metrics.Storage.BytesScanned, RowsProcessed: res.Metrics.RowsProcessed}}
	for i, row := range res.Rows {
		wr := make([]service.WireValue, len(row))
		for j, v := range row {
			wr[j] = service.ToWire(v)
		}
		resp.Rows[i] = wr
	}
	line, err := json.Marshal(&resp)
	tr.end(sp)
	if err != nil {
		return err
	}

	sp = tr.begin("wire.decode", id, root)
	var back service.Response
	err = json.Unmarshal(line, &back)
	for _, row := range back.Rows {
		for _, wv := range row {
			if _, ferr := service.FromWire(wv); ferr != nil && err == nil {
				err = ferr
			}
		}
	}
	tr.end(sp)
	if err != nil {
		return err
	}

	m := res.Metrics
	iso.statements++
	iso.rows += int64(len(res.Rows))
	iso.wireBytes += int64(len(line))
	iso.rulesFired += int64(len(prepared.RulesFired()))
	iso.rowsProcessed += m.RowsProcessed
	iso.hashRows += m.HashRows
	iso.pipelineBatches += m.Pipeline.PipelineBatches
	iso.fusedPipelines += m.Pipeline.FusedPipelines
	iso.maskPrefixHits += m.MaskPrefixHits
	return nil
}
