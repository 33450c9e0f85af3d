package service

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"

	"repro/internal/types"
)

// Wire protocol: newline-delimited JSON, one message per line, symmetric
// request/response. A connection sends Requests and reads Responses in
// order (no pipelining ambiguity: responses carry the request's ID).
//
// Values cross the wire losslessly. A query's result rows travel as one
// binary row block (Response.Block, base64 inside the JSON line; see
// encodeBlock): every value keeps its kind, null flag, integer payload,
// float bit pattern and string bytes, so NaN payloads, signed zeros and
// strings that are not UTF-8 all survive. A result decoded by the client is
// byte-identical to the engine's in-process result, which is what lets the
// soak test compare service results against solo runs exactly.
//
// Ingest rows still travel as JSON WireValues: the integer payload as an
// integer, the float payload as its IEEE-754 bit pattern in hex (JSON
// numbers would round-trip through decimal and lose NaN payloads and signed
// zeros), strings as JSON strings. encoding/json replaces invalid UTF-8
// with U+FFFD, so ingested strings must be valid UTF-8 to arrive intact.

// Request is one client→server message.
type Request struct {
	// ID is echoed on the matching Response.
	ID int64 `json:"id"`
	// Op is "hello", "query", "ingest", or "ping".
	Op string `json:"op"`
	// Tenant (hello) names the connection's tenant for all later queries.
	Tenant string `json:"tenant,omitempty"`
	// SQL (query) is the statement text.
	SQL string `json:"sql,omitempty"`
	// Table and Rows (ingest) name the append target and carry its rows as
	// WireValues.
	Table string        `json:"table,omitempty"`
	Rows  [][]WireValue `json:"rows,omitempty"`
}

// Response is one server→client message.
type Response struct {
	ID int64 `json:"id"`
	OK bool  `json:"ok"`
	// Err is the error text when OK is false. Kind classifies retriable
	// scheduling errors: "queue_full", "queue_timeout", "closed", or "" for
	// ordinary query errors.
	Err  string `json:"err,omitempty"`
	Kind string `json:"kind,omitempty"`
	// Columns and Block carry a query's result: Block is the rows as one
	// encodeBlock row block, len(Columns) values wide. An OK response
	// without a Block has no rows. The server never fills Rows; it remains
	// the WireValue form of a result for callers that want JSON values.
	Columns []string       `json:"columns,omitempty"`
	Rows    [][]WireValue  `json:"rows,omitempty"`
	Block   []byte         `json:"block,omitempty"`
	Metrics *ResultMetrics `json:"metrics,omitempty"`
	// Appended (ingest) is the number of rows durably published.
	Appended int64 `json:"appended,omitempty"`
}

// ResultMetrics is the slice of engine metrics a remote client can act on.
type ResultMetrics struct {
	BytesScanned   int64 `json:"bytesScanned"`
	RowsProcessed  int64 `json:"rowsProcessed"`
	BatchedQueries int64 `json:"batchedQueries,omitempty"`
	FusedPlans     int64 `json:"fusedPlans,omitempty"`
	// ResultCacheHits counts sub-plans of this query served from the
	// semantic result cache (engine Config.ResultCacheBytes > 0).
	ResultCacheHits int64 `json:"resultCacheHits,omitempty"`
}

// WireValue is the lossless JSON form of a types.Value.
type WireValue struct {
	K uint8  `json:"k"`
	N bool   `json:"n,omitempty"`
	I int64  `json:"i,omitempty"`
	F string `json:"f,omitempty"` // IEEE-754 bits in hex; "" when unset
	S string `json:"s,omitempty"`
}

// ToWire encodes v losslessly.
func ToWire(v types.Value) WireValue {
	w := WireValue{K: uint8(v.Kind), N: v.Null, I: v.I, S: v.S}
	if bits := math.Float64bits(v.F); bits != 0 {
		w.F = strconv.FormatUint(bits, 16)
	}
	return w
}

// FromWire decodes w back to the exact Value ToWire encoded.
func FromWire(w WireValue) (types.Value, error) {
	v := types.Value{Kind: types.Kind(w.K), Null: w.N, I: w.I, S: w.S}
	if w.F != "" {
		bits, err := strconv.ParseUint(w.F, 16, 64)
		if err != nil {
			return types.Value{}, fmt.Errorf("service: bad float bits %q: %w", w.F, err)
		}
		v.F = math.Float64frombits(bits)
	}
	return v, nil
}

// encodeRows converts rows to WireValues (the ingest request encoding).
func encodeRows(rows [][]types.Value) [][]WireValue {
	out := make([][]WireValue, len(rows))
	for i, row := range rows {
		wr := make([]WireValue, len(row))
		for j, v := range row {
			wr[j] = ToWire(v)
		}
		out[i] = wr
	}
	return out
}

// decodeRows converts ingest WireValues back to values.
func decodeRows(rows [][]WireValue) ([][]types.Value, error) {
	out := make([][]types.Value, len(rows))
	for i, row := range rows {
		vr := make([]types.Value, len(row))
		for j, w := range row {
			v, err := FromWire(w)
			if err != nil {
				return nil, err
			}
			vr[j] = v
		}
		out[i] = vr
	}
	return out, nil
}

// Row block layout: uvarint row count, uvarint width, then every value in
// row-major order as a kind byte, a flag byte, and only the fields its flags
// mark as set:
//
//	blockNull  the value is NULL               (no payload)
//	blockI     I != 0                          zigzag varint
//	blockF     the bits of F are not zero      8 bytes, little-endian
//	blockS     S != ""                         uvarint length, then the bytes
//
// A value takes at least two bytes, which is what lets decodeBlock bound
// its allocation by the block's length before it reads a single value.
const (
	blockNull = 1 << iota
	blockI
	blockF
	blockS
	blockFlags = blockNull | blockI | blockF | blockS
)

// encodeBlock renders rows, each width values wide, as one row block.
func encodeBlock(width int, rows [][]types.Value) ([]byte, error) {
	if width == 0 && len(rows) > 0 {
		return nil, errors.New("service: block rows without columns")
	}
	b := make([]byte, 0, 2*binary.MaxVarintLen64+len(rows)*width*4)
	b = binary.AppendUvarint(b, uint64(len(rows)))
	b = binary.AppendUvarint(b, uint64(width))
	for _, row := range rows {
		if len(row) != width {
			return nil, fmt.Errorf("service: block row has %d values, want %d", len(row), width)
		}
		for _, v := range row {
			var flags byte
			if v.Null {
				flags |= blockNull
			}
			if v.I != 0 {
				flags |= blockI
			}
			bits := math.Float64bits(v.F)
			if bits != 0 {
				flags |= blockF
			}
			if v.S != "" {
				flags |= blockS
			}
			b = append(b, byte(v.Kind), flags)
			if flags&blockI != 0 {
				b = binary.AppendVarint(b, v.I)
			}
			if flags&blockF != 0 {
				b = binary.LittleEndian.AppendUint64(b, bits)
			}
			if flags&blockS != 0 {
				b = binary.AppendUvarint(b, uint64(len(v.S)))
				b = append(b, v.S...)
			}
		}
	}
	return b, nil
}

// errBlock reports a row block that is truncated, oversized or malformed.
var errBlock = errors.New("service: malformed row block")

// decodeBlock parses a row block into rows that share one value slab,
// returning them with the block's width. It checks every length against the
// bytes that remain, so hostile input yields an error, never a panic or an
// allocation out of proportion to len(b).
func decodeBlock(b []byte) ([][]types.Value, int, error) {
	nrows, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, 0, errBlock
	}
	b = b[n:]
	width, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, 0, errBlock
	}
	b = b[n:]
	// Every value takes at least two bytes, so a count the remaining bytes
	// cannot hold is rejected before anything is allocated.
	if width > math.MaxInt32 || nrows > 0 && (width == 0 || nrows > uint64(len(b))/2/width) {
		return nil, 0, fmt.Errorf("%w: %d rows of %d values in %d bytes", errBlock, nrows, width, len(b))
	}
	w := int(width)
	slab := make([]types.Value, int(nrows)*w)
	for i := range slab {
		if len(b) < 2 {
			return nil, 0, errBlock
		}
		v, flags := &slab[i], b[1]
		v.Kind = types.Kind(b[0])
		b = b[2:]
		if flags&^blockFlags != 0 {
			return nil, 0, fmt.Errorf("%w: flags %#x", errBlock, flags)
		}
		v.Null = flags&blockNull != 0
		if flags&blockI != 0 {
			if v.I, n = binary.Varint(b); n <= 0 {
				return nil, 0, errBlock
			}
			b = b[n:]
		}
		if flags&blockF != 0 {
			if len(b) < 8 {
				return nil, 0, errBlock
			}
			v.F = math.Float64frombits(binary.LittleEndian.Uint64(b))
			b = b[8:]
		}
		if flags&blockS != 0 {
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return nil, 0, errBlock
			}
			v.S = string(b[n : n+int(l)])
			b = b[n+int(l):]
		}
	}
	if len(b) != 0 {
		return nil, 0, fmt.Errorf("%w: %d trailing bytes", errBlock, len(b))
	}
	rows := make([][]types.Value, nrows)
	for i := range rows {
		rows[i] = slab[i*w : (i+1)*w : (i+1)*w]
	}
	return rows, w, nil
}

// marshalLine renders one protocol message as a single JSON line.
func marshalLine(msg any) ([]byte, error) {
	b, err := json.Marshal(msg)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
