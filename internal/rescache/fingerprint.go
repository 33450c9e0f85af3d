package rescache

import (
	"strconv"
	"strings"
	"sync"

	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/storage"
	"repro/internal/types"
)

// Sub-plan fingerprints must be equal exactly when two sub-plans compute
// the same result from the same table. Plan trees carry per-instance
// column identities (two compilations of the same SQL never share column
// IDs), so the walker rewrites every expression onto interned canonical
// columns before rendering: scan outputs map to a column named by
// (table, column), project outputs map to a column named by their own
// canonical defining expression. Two structurally-equal sub-plans then
// render byte-identical strings through expr.Canonical regardless of which
// query instance produced them.

var (
	internMu   sync.Mutex
	internCols = make(map[string]*expr.Column)
)

// maxInternCols bounds the intern table. Every distinct projected or
// aggregated expression interns a column, so fresh-literal workloads would
// otherwise grow it forever. Clearing it when full is safe: a rendered
// column carries its name and a never-reused ID, so a re-interned name only
// renders a new fingerprint (a few misses), never a false hit.
const maxInternCols = 4096

// internCol returns the process-wide canonical column for a name: the same
// name resolves to the same *expr.Column (hence the same ID) until the
// table is cleared, which is what makes rendered fingerprints stable across
// query instances.
func internCol(name string, k types.Kind) *expr.Column {
	internMu.Lock()
	defer internMu.Unlock()
	if c, ok := internCols[name]; ok {
		return c
	}
	if len(internCols) >= maxInternCols {
		clear(internCols)
	}
	c := expr.NewColumn(name, k)
	internCols[name] = c
	return c
}

// allMapped reports whether every column referenced by e is in the mapping
// (Mapping.Apply silently passes unmapped columns through, which would make
// fingerprints depend on instance IDs).
func allMapped(m expr.Mapping, e expr.Expr) bool {
	ok := true
	expr.Walk(e, func(x expr.Expr) bool {
		if ref, isRef := x.(*expr.ColumnRef); isRef {
			if _, mapped := m[ref.Col.ID]; !mapped {
				ok = false
			}
		}
		return ok
	})
	return ok
}

// mapCanonical rewrites e onto canonical columns and renders its canonical
// form. ok is false when e references a column outside the mapping.
func mapCanonical(m expr.Mapping, e expr.Expr) (string, bool) {
	if e == nil {
		return "", true
	}
	if !allMapped(m, e) {
		return "", false
	}
	return expr.Canonical(m.Apply(e)).String(), true
}

// Fingerprint renders the semantic identity of an eligible sub-plan: a
// Filter/Project chain over a single Scan, with at most one GroupBy
// (scalar or keyed) anywhere in the stack. It returns the fingerprint, the
// scanned table, and ok=false for any other shape.
func Fingerprint(op logical.Operator) (fp string, table string, ok bool) {
	var b strings.Builder
	sawGB := false
	_, table, ok = fingerprintNode(op, &b, &sawGB)
	if !ok {
		return "", "", false
	}
	return b.String(), table, true
}

func fingerprintNode(op logical.Operator, b *strings.Builder, sawGB *bool) (expr.Mapping, string, bool) {
	switch o := op.(type) {
	case *logical.Scan:
		m := expr.Identity()
		b.WriteString("scan:")
		b.WriteString(o.Table.Name)
		b.WriteByte('[')
		for i, c := range o.Cols {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(o.ColNames[i])
			m.Add(c.ID, internCol("s:"+o.Table.Name+"."+o.ColNames[i], c.Type))
		}
		b.WriteByte(']')
		return m, o.Table.Name, true

	case *logical.Filter:
		m, tab, ok := fingerprintNode(o.Input, b, sawGB)
		if !ok {
			return nil, "", false
		}
		ce, ok := mapCanonical(m, o.Cond)
		if !ok {
			return nil, "", false
		}
		b.WriteString("|filter:")
		b.WriteString(ce)
		return m, tab, true

	case *logical.Project:
		m, tab, ok := fingerprintNode(o.Input, b, sawGB)
		if !ok {
			return nil, "", false
		}
		b.WriteString("|proj:")
		for i, a := range o.Cols {
			ce, ok := mapCanonical(m, a.E)
			if !ok {
				return nil, "", false
			}
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(ce)
			m.Add(a.Col.ID, internCol("d:"+ce, a.Col.Type))
		}
		return m, tab, true

	case *logical.GroupBy:
		if *sawGB {
			return nil, "", false
		}
		*sawGB = true
		m, tab, ok := fingerprintNode(o.Input, b, sawGB)
		if !ok {
			return nil, "", false
		}
		b.WriteString("|gb:[")
		for i, k := range o.Keys {
			if _, mapped := m[k.ID]; !mapped {
				return nil, "", false
			}
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(m.Resolve(k).String())
		}
		b.WriteString("]aggs:[")
		for i, a := range o.Aggs {
			if !allMapped(m, a.Agg.Arg) || !allMapped(m, a.Agg.Mask) {
				return nil, "", false
			}
			mapped := m.ApplyAgg(a.Agg)
			canon := expr.AggCall{
				Fn:       mapped.Fn,
				Arg:      expr.Canonical(mapped.Arg),
				Mask:     expr.Canonical(mapped.Mask),
				Distinct: mapped.Distinct,
			}
			s := canon.String()
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(s)
			m.Add(a.Col.ID, internCol("a:"+s, a.Col.Type))
		}
		b.WriteByte(']')
		return m, tab, true
	}
	return nil, "", false
}

// signature renders the table's current partition-set version: its ordered
// partition Seq numbers. Two signatures are equal exactly when the table's
// partition set is unchanged, so entries survive appends to other tables.
// ok is false when the table has no data loaded.
func signature(st *storage.Store, table string) (string, bool) {
	seqs, ok := st.PartitionSeqs(table)
	if !ok {
		return "", false
	}
	var b strings.Builder
	for _, s := range seqs {
		b.WriteString(strconv.FormatInt(s, 36))
		b.WriteByte(',')
	}
	return b.String(), true
}
