package benchmark

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/tpcds"
)

// A paperTemplate turns one tpcds.Queries() text into a family of
// structurally distinct statements: edits returns old/new pairs applied to
// the text with seeded literals. Every family carries at least one literal
// with thousands of values inside each fact-table sub-plan, so no two
// statements of a run share a cacheable sub-plan over a fact table, and the
// literals are chosen so that selectivity (and with it cost) barely moves.
type paperTemplate struct {
	name  string
	edits func(r *rand.Rand) []string
}

// price is a near-always-true upper bound on a price-like column whose
// values stay below 202: 20000 distinct literals, at most 3 % of rows cut.
func price(r *rand.Rand) string { return cents(15000 + r.Intn(20000)) }

func cents(c int) string { return fmt.Sprintf("%d.%02d", c/100, c%100) }

func year(r *rand.Rand) int { return 1998 + r.Intn(5) }

var (
	dayNames   = []string{"Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday"}
	categories = []string{"Music", "Books", "Electronics", "Home", "Sports", "Shoes", "Jewelry", "Men", "Women", "Children"}
	states     = []string{"TN", "CA", "WA", "NY", "TX", "GA", "OH", "IL", "FL", "MI"}
)

// and appends a conjunct to an existing predicate.
func and(old, conjunct string) []string { return []string{old, old + " AND " + conjunct} }

// where gives a FROM clause that has no predicate one.
func where(from, pred string) []string { return []string{from, from + " WHERE " + pred} }

var paperTemplates = []paperTemplate{
	{"q01", func(r *rand.Rand) []string {
		return []string{
			"d_year = 2000", fmt.Sprintf("d_year = %d AND sr_return_amt <= %s", year(r), price(r)),
			"* 1.2", fmt.Sprintf("* 1.%02d", 10+r.Intn(40)),
		}
	}},
	{"q09", func(r *rand.Rand) []string {
		p := price(r)
		out := []string{"> 12000", fmt.Sprintf("> %d", 20000+r.Intn(60000))}
		for _, b := range []string{"1 AND 20", "21 AND 40", "41 AND 60", "61 AND 80", "81 AND 100"} {
			out = append(out, and("ss_quantity BETWEEN "+b, "ss_sales_price <= "+p)...)
		}
		return out
	}},
	{"q23", func(r *rand.Rand) []string {
		y, m := year(r), 1+r.Intn(12)
		dim := fmt.Sprintf("d_year = %d AND d_moy = %d AND ", y, m)
		return []string{
			"ss_sold_date_sk = d_date_sk AND d_year = 1999",
			fmt.Sprintf("ss_sold_date_sk = d_date_sk AND d_year = %d AND ss_sales_price <= %s", y, price(r)),
			"FROM store_sales\n  GROUP BY ss_customer_sk",
			"FROM store_sales WHERE ss_sales_price <= " + price(r) + "\n  GROUP BY ss_customer_sk",
			"> 900", "> " + cents(70000+r.Intn(40000)),
			"d_year = 1999 AND d_moy = 1 AND cs_sold_date_sk", dim + "cs_list_price <= " + price(r) + " AND cs_sold_date_sk",
			"d_year = 1999 AND d_moy = 1 AND ws_sold_date_sk", dim + "ws_list_price <= " + price(r) + " AND ws_sold_date_sk",
		}
	}},
	{"q28", func(r *rand.Rand) []string {
		p, q := r.Intn(40), r.Intn(40)
		return []string{
			"ss_list_price BETWEEN 10 AND 60", fmt.Sprintf("ss_list_price BETWEEN %d AND %d", 10+p, 60+p),
			"ss_list_price BETWEEN 20 AND 70", fmt.Sprintf("ss_list_price BETWEEN %d AND %d", 20+q, 70+q),
			"ss_coupon_amt BETWEEN 3 AND 7", fmt.Sprintf("ss_coupon_amt BETWEEN 3 AND %s", cents(700+r.Intn(100))),
		}
	}},
	{"q30", func(r *rand.Rand) []string {
		return []string{
			"d_year = 2000", fmt.Sprintf("d_year = %d AND wr_return_amt <= %s", year(r), cents(7000+r.Intn(10000))),
			"* 1.2", fmt.Sprintf("* 1.%02d", 10+r.Intn(40)),
		}
	}},
	{"q65", func(r *rand.Rand) []string {
		a := 1188 + r.Intn(25)
		return []string{
			"d_month_seq BETWEEN 1212 AND 1247",
			fmt.Sprintf("d_month_seq BETWEEN %d AND %d AND ss_sales_price <= %s", a, a+35, price(r)),
			"0.1 * sb.ave", fmt.Sprintf("0.%02d * sb.ave", 5+r.Intn(20)),
		}
	}},
	{"q88", func(r *rand.Rand) []string {
		return []string{
			"s_store_name = 'Store #1'", fmt.Sprintf("s_store_name = 'Store #%d'", 1+r.Intn(40)),
			"hd_vehicle_count <= 6", fmt.Sprintf("hd_vehicle_count <= %d", 4+r.Intn(5)),
			"hd_dep_count = 2", fmt.Sprintf("hd_dep_count = %d", r.Intn(10)),
			"ss_store_sk = s_store_sk", "ss_store_sk = s_store_sk AND ss_sales_price <= " + price(r),
		}
	}},
	{"q95", func(r *rand.Rand) []string {
		p := price(r)
		return []string{
			"ws1.ws_warehouse_sk <> ws2.ws_warehouse_sk",
			"ws1.ws_warehouse_sk <> ws2.ws_warehouse_sk AND ws1.ws_list_price <= " + p + " AND ws2.ws_list_price <= " + p,
			"d_year = 1999 AND d_moy = 2", fmt.Sprintf("d_year = %d AND d_moy = %d", year(r), 1+r.Intn(12)),
			"ca_state = 'TN'", fmt.Sprintf("ca_state = '%s' AND ws_list_price <= %s", states[r.Intn(len(states))], price(r)),
		}
	}},
	{"f01", func(r *rand.Rand) []string { return and("ss_store_sk = s_store_sk", "ss_sales_price <= "+price(r)) }},
	{"f02", func(r *rand.Rand) []string {
		return []string{"d_year = 1999", fmt.Sprintf("d_year = %d AND ss_sales_price <= %s", year(r), price(r))}
	}},
	{"f03", func(r *rand.Rand) []string {
		return where("FROM store_sales", "ss_sales_price <= "+price(r))
	}},
	{"f04", func(r *rand.Rand) []string { return and("ss_item_sk = i_item_sk", "ss_sales_price <= "+price(r)) }},
	{"f05", func(r *rand.Rand) []string {
		return where("FROM store_returns", "sr_return_amt <= "+price(r))
	}},
	{"f06", func(r *rand.Rand) []string {
		return []string{"d_year = 2000", fmt.Sprintf("d_year = %d AND cs_list_price <= %s", year(r), price(r))}
	}},
	{"f07", func(r *rand.Rand) []string { return and("ws_web_site_sk = web_site_sk", "ws_list_price <= "+price(r)) }},
	{"f08", func(r *rand.Rand) []string {
		return and("c_current_addr_sk = ca_address_sk", fmt.Sprintf("c_customer_sk <= %d", 100000+r.Intn(100000)))
	}},
	{"f09", func(r *rand.Rand) []string {
		return where("FROM item", "i_current_price <= "+price(r))
	}},
	{"f10", func(r *rand.Rand) []string {
		return []string{"d_day_name = 'Monday'",
			fmt.Sprintf("d_day_name = '%s' AND ss_sales_price <= %s", dayNames[r.Intn(len(dayNames))], price(r))}
	}},
	{"f11", func(r *rand.Rand) []string {
		return where("FROM store_sales", "ss_sales_price <= "+price(r))
	}},
	{"f12", func(r *rand.Rand) []string {
		h := r.Intn(16)
		return []string{"t_hour BETWEEN 9 AND 17",
			fmt.Sprintf("t_hour BETWEEN %d AND %d AND ss_sales_price <= %s", h, h+8, price(r))}
	}},
	{"f13", func(r *rand.Rand) []string {
		return []string{"FROM household_demographics\n",
			fmt.Sprintf("FROM household_demographics WHERE hd_demo_sk <= %d\n", 100000+r.Intn(100000))}
	}},
	{"f14", func(r *rand.Rand) []string {
		return where("FROM store_returns", "sr_return_amt <= "+price(r))
	}},
	{"f15", func(r *rand.Rand) []string {
		return and("wr_returning_addr_sk = ca_address_sk", "wr_return_amt <= "+cents(7000+r.Intn(10000)))
	}},
	{"f16", func(r *rand.Rand) []string {
		return []string{"FROM item)", "FROM item WHERE i_current_price <= " + price(r) + ")"}
	}},
	{"f17", func(r *rand.Rand) []string {
		return where("FROM store_sales", "ss_sales_price <= "+price(r))
	}},
	{"f18", func(r *rand.Rand) []string {
		return []string{"i_category = 'Music'",
			fmt.Sprintf("i_category = '%s' AND ss_sales_price <= %s", categories[r.Intn(len(categories))], price(r))}
	}},
	{"f19", func(r *rand.Rand) []string {
		return []string{
			"WHERE cs_item_sk IN", "WHERE cs_list_price <= " + price(r) + " AND cs_item_sk IN",
			"i_current_price > 100", "i_current_price > " + cents(8000+r.Intn(1900)),
		}
	}},
	{"f20", func(r *rand.Rand) []string {
		return []string{
			"FROM catalog_sales", "FROM catalog_sales WHERE cs_list_price <= " + price(r),
			"FROM web_sales", "FROM web_sales WHERE ws_list_price <= " + price(r),
		}
	}},
	{"f21", func(r *rand.Rand) []string { return and("ss_quantity > 95", "ss_sales_price <= "+price(r)) }},
	{"f22", func(r *rand.Rand) []string {
		return []string{"d_year = 2001", fmt.Sprintf("d_year = %d AND ss_sales_price <= %s", year(r), price(r))}
	}},
	{"f23", func(r *rand.Rand) []string { return and("ss_quantity > 98", "ss_sales_price <= "+price(r)) }},
	{"f24", func(r *rand.Rand) []string { return and("i_item_desc LIKE '%item%'", "i_current_price <= "+price(r)) }},
	{"f25", func(r *rand.Rand) []string {
		return and("i_color IN ('red', 'green', 'blue')", "i_current_price <= "+price(r))
	}},
	{"f26", func(r *rand.Rand) []string {
		return []string{
			"FROM store_sales\n", "FROM store_sales WHERE ss_sales_price <= " + price(r) + "\n",
			"> 150", fmt.Sprintf("> %d", 130+r.Intn(40)),
		}
	}},
	{"f27", func(r *rand.Rand) []string {
		return []string{"FROM household_demographics\n",
			fmt.Sprintf("FROM household_demographics WHERE hd_demo_sk <= %d\n", 100000+r.Intn(100000))}
	}},
	{"f28", func(r *rand.Rand) []string {
		return and("sr_customer_sk = c_customer_sk", "sr_return_amt <= "+price(r))
	}},
	{"f29", func(r *rand.Rand) []string {
		return []string{
			"WHERE ws_item_sk IN", "WHERE ws_list_price <= " + price(r) + " AND ws_item_sk IN",
			"i_current_price < 10", "i_current_price < " + cents(500+r.Intn(1000)),
		}
	}},
	{"f30", func(r *rand.Rand) []string {
		m := 1 + r.Intn(10)
		return []string{"d_year = 2002 AND d_moy BETWEEN 6 AND 8",
			fmt.Sprintf("d_year = %d AND d_moy BETWEEN %d AND %d AND ws_list_price <= %s", year(r), m, m+2, price(r))}
	}},
	{"f31", func(r *rand.Rand) []string {
		return []string{"FROM store_sales GROUP BY", "FROM store_sales WHERE ss_ext_sales_price <= " + cents(150000+r.Intn(100000)) + " GROUP BY"}
	}},
	{"f32", func(r *rand.Rand) []string {
		return []string{
			"FROM store_sales\n", "FROM store_sales WHERE ss_sales_price <= " + price(r) + "\n",
			"FROM catalog_sales\n", "FROM catalog_sales WHERE cs_list_price <= " + price(r) + "\n",
			"FROM web_sales", "FROM web_sales WHERE ws_list_price <= " + price(r),
		}
	}},
}

// instantiate applies one seeded draw of the template's literals to the
// query text. A pattern missing from the text is an error: the text in
// internal/tpcds moved and the template must follow it.
func (t paperTemplate) instantiate(base string, r *rand.Rand) (string, error) {
	pairs := t.edits(r)
	for i := 0; i < len(pairs); i += 2 {
		if !strings.Contains(base, pairs[i]) {
			return "", fmt.Errorf("benchmark: template %s: %q not found in the tpcds query text", t.name, pairs[i])
		}
	}
	return strings.TrimSpace(strings.NewReplacer(pairs...).Replace(base)), nil
}

// paperBases returns the query text of every template, in template order.
func paperBases() ([]string, error) {
	bases := make([]string, len(paperTemplates))
	for i, t := range paperTemplates {
		q, ok := tpcds.Get(t.name)
		if !ok {
			return nil, fmt.Errorf("benchmark: tpcds has no query %s", t.name)
		}
		bases[i] = q.SQL
	}
	return bases, nil
}
