package fragment

import (
	"encoding/binary"
	"fmt"

	"globaldb/internal/table"
)

// This file defines the lookup-join rider a fragment can carry: the
// serializable description of a join whose inner side is a primary-key
// (point or prefix) lookup keyed by outer-row columns. A data node that
// receives a fragment with a Lookup runs the inner lookup next to the data
// for every outer row its filter keeps — the inner table's rows for a given
// distribution value live on the same shard as the outer table's (the
// planner only pushes co-located joins) — and ships already-joined rows, so
// the join's WAN cost is O(matching output) instead of O(inner table).

// Lookup describes the pushed inner side of a lookup join. KeyExprs are
// evaluated against the decoded OUTER row (column positions refer to the
// outer fragment's Kinds); their values, coerced to KeyKinds, extend Prefix
// into the inner table's primary-key prefix to scan. Kinds describes the
// inner table's stored rows, and Project the inner columns to ship (nil
// ships all inner columns; an empty non-nil Project ships none — a
// semi-join-shaped shipment that still emits one joined row per match).
type Lookup struct {
	Prefix   []byte
	KeyExprs []Expr
	KeyKinds []table.Kind
	Kinds    []table.Kind
	Project  []int
}

// CoerceKey coerces an outer-row value to an inner key column's kind. It
// mirrors the computing node's own key coercion (gsql's coerceValue) value
// class for value class, so a pushed lookup accepts, misses, and rejects
// exactly the keys the CN-side access path would: NULL stays NULL (the
// caller treats a NULL key as matching nothing, as SQL equality requires),
// a fractional float never silently truncates into an integer key, and an
// incompatible type is a query error, not a miss.
func CoerceKey(k table.Kind, v any) (any, error) {
	if v == nil {
		return nil, nil
	}
	switch k {
	case table.Int64:
		switch x := v.(type) {
		case int64:
			return x, nil
		case float64:
			if x == float64(int64(x)) {
				return int64(x), nil
			}
		}
	case table.Float64:
		switch x := v.(type) {
		case float64:
			return x, nil
		case int64:
			return float64(x), nil
		}
	case table.String:
		if s, ok := v.(string); ok {
			return s, nil
		}
	case table.Bytes:
		switch x := v.(type) {
		case []byte:
			return x, nil
		case string:
			return []byte(x), nil
		}
	case table.Bool:
		if b, ok := v.(bool); ok {
			return b, nil
		}
	}
	return nil, fmt.Errorf("%w: cannot use %T as %v lookup key", ErrType, v, k)
}

// ---- Wire format ----
//
// The lookup section trails the aggregate section: a presence flag byte,
// then prefix, key expressions, key kinds, inner kinds, and the inner
// projection. Fragments encoded before the lookup section existed simply
// end after the aggregates; Decode treats the absent section as no lookup,
// so old encodings (including the checked-in fuzz corpus) stay valid.

func appendLookup(b []byte, l *Lookup) ([]byte, error) {
	if l == nil {
		return append(b, 0), nil
	}
	b = append(b, 1)
	b = appendUvarint(b, len(l.Prefix))
	b = append(b, l.Prefix...)
	b = appendUvarint(b, len(l.KeyExprs))
	var err error
	for i := range l.KeyExprs {
		if b, err = appendExpr(b, &l.KeyExprs[i]); err != nil {
			return nil, err
		}
	}
	for _, k := range l.KeyKinds {
		b = append(b, byte(k))
	}
	b = appendUvarint(b, len(l.Kinds))
	for _, k := range l.Kinds {
		b = append(b, byte(k))
	}
	if l.Project != nil {
		b = append(b, 1)
		b = appendUvarint(b, len(l.Project))
		for _, c := range l.Project {
			b = appendUvarint(b, c)
		}
	} else {
		b = append(b, 0)
	}
	return b, nil
}

func decodeLookup(b []byte) (*Lookup, []byte, error) {
	l := &Lookup{}
	np, b, err := table.DecodeLen(b)
	if err != nil || np > len(b) {
		return nil, nil, ErrCorrupt
	}
	l.Prefix = append([]byte(nil), b[:np]...)
	b = b[np:]
	nk, b, err := table.DecodeLen(b)
	if err != nil || nk > len(b) { // each expr takes >= 1 byte
		return nil, nil, ErrCorrupt
	}
	l.KeyExprs = make([]Expr, nk)
	for i := 0; i < nk; i++ {
		if l.KeyExprs[i], b, err = decodeExpr(b); err != nil {
			return nil, nil, err
		}
	}
	if nk > len(b) { // one kind byte per key expression
		return nil, nil, ErrCorrupt
	}
	l.KeyKinds = make([]table.Kind, nk)
	for i := 0; i < nk; i++ {
		l.KeyKinds[i] = table.Kind(b[i])
	}
	b = b[nk:]
	ni, b, err := table.DecodeLen(b)
	if err != nil || ni > len(b) {
		return nil, nil, ErrCorrupt
	}
	l.Kinds = make([]table.Kind, ni)
	for i := 0; i < ni; i++ {
		l.Kinds[i] = table.Kind(b[i])
	}
	b = b[ni:]
	if len(b) == 0 {
		return nil, nil, ErrCorrupt
	}
	hasProj := b[0] == 1
	if b[0] > 1 {
		return nil, nil, fmt.Errorf("%w: lookup projection flag %#x", ErrCorrupt, b[0])
	}
	b = b[1:]
	if hasProj {
		var npr int
		if npr, b, err = table.DecodeLen(b); err != nil {
			return nil, nil, err
		}
		if npr > len(b) {
			return nil, nil, ErrCorrupt
		}
		l.Project = make([]int, npr)
		for i := 0; i < npr; i++ {
			if l.Project[i], b, err = table.DecodeLen(b); err != nil {
				return nil, nil, err
			}
		}
	}
	return l, b, nil
}

// validateLookup checks the lookup section's bounds: key expressions are
// evaluated against the OUTER row (outerCols wide), the projection against
// the inner kinds.
func validateLookup(l *Lookup, outerCols int) error {
	if len(l.Prefix) == 0 {
		return fmt.Errorf("%w: lookup without key prefix", ErrCorrupt)
	}
	if len(l.KeyExprs) == 0 {
		return fmt.Errorf("%w: lookup without key expressions", ErrCorrupt)
	}
	for i := range l.KeyExprs {
		if err := validateExpr(&l.KeyExprs[i], outerCols); err != nil {
			return err
		}
	}
	for _, c := range l.Project {
		if c < 0 || c >= len(l.Kinds) {
			return fmt.Errorf("%w: lookup projected column %d of %d", ErrCorrupt, c, len(l.Kinds))
		}
	}
	return nil
}

func appendUvarint(b []byte, v int) []byte {
	return binary.AppendUvarint(b, uint64(v))
}
