package benchmark

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/storage"
	"repro/internal/types"
)

// A workload is one traffic mix over the one stack. Statements come in
// rows: in a closed loop row k holds the k-th statement of every client, in
// an open loop row k is the k-th burst and holds its tiles.
type workload struct {
	name string
	why  string // one line, as in BENCHMARK.json
	// open selects the open loop: a row is a burst fired every period,
	// timed from its due time. Otherwise clients each keep one statement in
	// flight and a round is `round` consecutive statements of one client.
	open  bool
	round int
	// solo gives the closed loop one client; otherwise it has one client per
	// connection.
	solo bool
	// ingestEvery makes client 0 send one ingest batch per that many of its
	// own queries, the first after a tenth of them, so that even a short run
	// has one (0: the workload has no writes beside its reads).
	ingestEvery int
	// newGen returns the statement generator; it is called for consecutive
	// (row, slot) pairs in row-major order and may keep state.
	newGen func(seed int64, d dataInfo) (func(row, slot int) string, error)
}

// burstPeriod is the overlap_burst refresh period at DefaultScale: about
// twice the reference box's median burst service time (≈50 % utilisation).
const burstPeriod = 160 * time.Millisecond

const (
	burstTiles   = 8
	ingestRows   = 512
	ingestTable  = "store_sales"
	panelsPerSet = 5
)

// Workloads lists the benchmark's workloads; names are permanent.
func Workloads() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// slots is the number of statements in a row: the tiles of a burst, or the
// closed loop's clients.
func (w *workload) slots(conns int) int {
	switch {
	case w.open:
		return w.round
	case w.solo:
		return 1
	}
	return conns
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("benchmark: unknown workload %q (have %v)", name, Workloads())
}

var workloads = []workload{
	{
		name:   "paper_solo",
		why:    "the paper's Figure 1/2 queries, one in flight: parse, bind, optimize, exec and storage do the work and the cross-query layers (xfuse, rescache, service queue) almost none",
		solo:   true,
		round:  len(paperTemplates),
		newGen: paperGen,
	},
	{
		name:   "overlap_burst",
		why:    "open loop of bursts of 8 overlapping scalar aggregates: service dispatch, the xfuse window and scanshare do the work and rescache only misses",
		open:   true,
		round:  burstTiles,
		newGen: burstGen,
	},
	{
		name:        "repeat_ingest",
		why:         "five fixed dashboard panels refreshed beside seeded appends: the rescache hit path, invalidation and recovery, and storage.Append; the optimizer rules and xfuse do little",
		round:       panelsPerSet,
		ingestEvery: 250,
		newGen:      panelGen,
	},
	{
		name:   "selective_scan",
		why:    "narrow ranges and 10k-row extracts with fresh literals: pruning leaves storage little to read, so fixed per-statement cost sets the median and the wire codec the tail; rescache is bypassed",
		round:  10,
		newGen: selectiveGen,
	},
}

// dataInfo is what the generators need to know about the loaded data.
type dataInfo struct {
	minDate, maxDate int64 // store_sales partition keys
}

func inspect(st *storage.Store) dataInfo {
	parts := st.Data("store_sales").Partitions
	d := dataInfo{minDate: parts[0].Key.I, maxDate: parts[0].Key.I}
	for _, p := range parts {
		if p.Key.I < d.minDate {
			d.minDate = p.Key.I
		}
		if p.Key.I > d.maxDate {
			d.maxDate = p.Key.I
		}
	}
	return d
}

// source materialises a workload's statements lazily and deterministically:
// whatever order clients ask in, row k slot s is always the same text for
// the same seed, and no text repeats within a run unless the generator
// means it to.
type source struct {
	mu    sync.Mutex
	width int
	rows  [][]string
	gen   func(row, slot int) string
}

func (s *source) at(row, slot int) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.rows) <= row {
		r := make([]string, s.width)
		for i := range r {
			r[i] = s.gen(len(s.rows), i)
		}
		s.rows = append(s.rows, r)
	}
	return s.rows[row][slot]
}

// fresh wraps a seeded generator so that it never returns the same text
// twice: a repeated draw is drawn again.
func fresh(draw func(row, slot int) string) func(row, slot int) string {
	seen := map[string]bool{}
	return func(row, slot int) string {
		for try := 0; try < 1000; try++ {
			if s := draw(row, slot); !seen[s] {
				seen[s] = true
				return s
			}
		}
		panic(fmt.Sprintf("benchmark: statement (%d, %d) has run out of fresh literals", row, slot))
	}
}

func paperGen(seed int64, _ dataInfo) (func(row, slot int) string, error) {
	bases, err := paperBases()
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(seed))
	// Validate every template once, so a moved query text fails before the
	// run instead of in the middle of it.
	for i, t := range paperTemplates {
		if _, err := t.instantiate(bases[i], rand.New(rand.NewSource(seed))); err != nil {
			return nil, err
		}
	}
	return fresh(func(row, _ int) string {
		i := row % len(paperTemplates)
		s, _ := paperTemplates[i].instantiate(bases[i], r) // validated above
		return s
	}), nil
}

// burstGen makes dashboard refreshes: six tiles over store_sales and two
// over web_sales whose quantity ranges overlap, each with its own measure
// and a literal no other tile of the run has.
func burstGen(seed int64, _ dataInfo) (func(row, slot int) string, error) {
	r := rand.New(rand.NewSource(seed))
	ssMeasures := []string{"ss_ext_sales_price", "ss_net_profit", "ss_coupon_amt", "ss_list_price", "ss_ext_discount_amt", "ss_sales_price"}
	wsMeasures := []string{"ws_net_profit", "ws_ext_ship_cost"}
	return fresh(func(_, slot int) string {
		lo := 1 + r.Intn(50)
		hi := lo + 30 + r.Intn(20)
		if slot < len(ssMeasures) {
			m := ssMeasures[slot]
			return fmt.Sprintf("SELECT COUNT(*) AS n, SUM(%s) AS total, AVG(%s) AS mean FROM store_sales "+
				"WHERE ss_quantity BETWEEN %d AND %d AND ss_sales_price <= %s", m, m, lo, hi, price(r))
		}
		m := wsMeasures[slot-len(ssMeasures)]
		return fmt.Sprintf("SELECT COUNT(*) AS n, SUM(%s) AS total, AVG(%s) AS mean FROM web_sales "+
			"WHERE ws_quantity BETWEEN %d AND %d AND ws_list_price <= %s", m, m, lo, hi, price(r))
	}), nil
}

// panelGen makes the five panels of one dashboard over the last panelDays
// days of sales (appended partitions are later still, so every append lands
// in every store_sales panel): three bucket scalar aggregates and one keyed
// rollup over store_sales and one scalar aggregate over web_sales. The seed
// moves the bucket boundaries; within a run the panels never change, so
// every refresh can be a cache hit until an append invalidates it.
func panelGen(seed int64, d dataInfo) (func(row, slot int) string, error) {
	panels := panelSet(seed, d)
	return func(row, slot int) string { return panels[(row+slot)%len(panels)] }, nil
}

const panelDays = 180

func panelSet(seed int64, d dataInfo) []string {
	r := rand.New(rand.NewSource(seed))
	a, b := 20+r.Intn(15), 55+r.Intn(15)
	since := d.maxDate - panelDays + 1
	ss := fmt.Sprintf("FROM store_sales WHERE ss_sold_date_sk >= %d AND ss_quantity", since)
	return []string{
		fmt.Sprintf("SELECT COUNT(*) AS n, SUM(ss_ext_sales_price) AS revenue %s BETWEEN 1 AND %d", ss, a),
		fmt.Sprintf("SELECT COUNT(*) AS n, AVG(ss_net_profit) AS profit %s BETWEEN %d AND %d", ss, a+1, b),
		fmt.Sprintf("SELECT MIN(ss_sales_price) AS lo, MAX(ss_sales_price) AS hi, COUNT(*) AS n %s BETWEEN %d AND 100", ss, b+1),
		fmt.Sprintf("SELECT ss_store_sk, COUNT(*) AS n, SUM(ss_sales_price) AS revenue %s <= %d GROUP BY ss_store_sk ORDER BY ss_store_sk", ss, 90+r.Intn(10)),
		fmt.Sprintf("SELECT COUNT(*) AS n, SUM(ws_net_profit) AS profit FROM web_sales WHERE ws_sold_date_sk >= %d AND ws_quantity <= %d", since, 40+r.Intn(20)),
	}
}

// selectiveGen makes, per client, nine narrow aggregates then one extract,
// all with fresh literals. Of the narrow ones three take a 1–14-day range of
// the partition column of each sales fact (pruned by partition key, never
// billed), four take such a range of ws_ship_date_sk, the one fact column
// that is clustered with the partition key without being it (pruned by zone
// maps after billing), one joins web_sales to a few days of date_dim
// (sideways filter) and one joins 180 days of catalog_sales to a small build
// from item.
// The extract returns 152 days of store_sales (≈10k rows at
// DefaultScale) in three columns.
func selectiveGen(seed int64, d dataInfo) (func(row, slot int) string, error) {
	r := rand.New(rand.NewSource(seed))
	days := int(d.maxDate - d.minDate + 1)
	span := func(width int) (int64, int64) {
		lo := d.minDate + int64(r.Intn(days-width))
		return lo, lo + int64(width) - 1
	}
	shipMeasures := []string{"ws_net_profit", "ws_ext_ship_cost", "ws_list_price", "ws_quantity"}
	return fresh(func(row, _ int) string {
		kind := row % 10
		if kind == 9 {
			lo, hi := span(152)
			return fmt.Sprintf("SELECT ss_item_sk, ss_quantity, ss_sales_price FROM store_sales "+
				"WHERE ss_sold_date_sk BETWEEN %d AND %d AND ss_sales_price <= %s", lo, hi, price(r))
		}
		lo, hi := span(1 + r.Intn(14))
		switch kind {
		case 0:
			return fmt.Sprintf("SELECT COUNT(*) AS n, SUM(ss_sales_price) AS total FROM store_sales "+
				"WHERE ss_sold_date_sk BETWEEN %d AND %d", lo, hi)
		case 2:
			return fmt.Sprintf("SELECT COUNT(*) AS n, SUM(cs_list_price) AS total FROM catalog_sales "+
				"WHERE cs_sold_date_sk BETWEEN %d AND %d", lo, hi)
		case 6:
			return fmt.Sprintf("SELECT COUNT(*) AS n, SUM(ws_net_profit) AS total FROM web_sales "+
				"WHERE ws_sold_date_sk BETWEEN %d AND %d", lo, hi)
		case 4:
			dom := 1 + r.Intn(20)
			return fmt.Sprintf("SELECT COUNT(*) AS n, SUM(ws_net_profit) AS total FROM web_sales, date_dim "+
				"WHERE ws_sold_date_sk = d_date_sk AND d_year = %d AND d_moy = %d AND d_dom BETWEEN %d AND %d",
				year(r), 1+r.Intn(12), dom, dom+1+r.Intn(8))
		case 8:
			lo, hi := span(180)
			return fmt.Sprintf("SELECT COUNT(*) AS n, SUM(cs_list_price) AS total FROM catalog_sales, item "+
				"WHERE cs_item_sk = i_item_sk AND i_current_price > %s AND cs_sold_date_sk BETWEEN %d AND %d",
				cents(9800+r.Intn(150)), lo, hi)
		default: // 1, 3, 5, 7
			return fmt.Sprintf("SELECT COUNT(*) AS n, SUM(%s) AS total FROM web_sales "+
				"WHERE ws_ship_date_sk BETWEEN %d AND %d", shipMeasures[kind/2], lo, hi)
		}
	}), nil
}

// ingestBatch is the k-th append of a run: ingestRows store_sales rows in a
// date partition of their own, past the loaded calendar.
func ingestBatch(seed int64, d dataInfo, k int) [][]types.Value {
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(k)))
	date := d.maxDate + 1 + int64(k)
	rows := make([][]types.Value, ingestRows)
	for i := range rows {
		list := float64(100+r.Intn(20000)) / 100
		sales := float64(int(list*(40+float64(r.Intn(60))))) / 100
		rows[i] = []types.Value{
			types.Int(date), types.Int(int64(r.Intn(1440))), types.Int(int64(1 + r.Intn(1000))),
			types.Int(int64(1 + r.Intn(2000))), types.Int(int64(1 + r.Intn(100))), types.Int(int64(1 + r.Intn(1000))),
			types.Int(int64(1 + r.Intn(20))), types.Int(int64(1 + r.Intn(100))),
			types.Float(list), types.Float(sales), types.Float(float64(r.Intn(2000)) / 100),
			types.Float(sales * float64(1+r.Intn(10))), types.Float(float64(r.Intn(1000)) / 100),
			types.Float(sales - list*0.7),
		}
	}
	return rows
}
