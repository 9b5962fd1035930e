package fragment

import (
	"bytes"
	"fmt"

	"globaldb/internal/keys"
	"globaldb/internal/table"
)

// This file is the one description of what a shipped page row carries.
// A data node encodes the rows it ships with RowBatch.AppendCols over a
// Layout's columns, and the computing node decodes them with the Layout's
// RowDecoder, so the two sides cannot drift apart. Every value is written
// with table.AppendValue and read with table.DecodeValue, the encoding of
// stored rows and primary keys.

// Layout describes the values one shipped page row carries: the kind of
// each, the column the data node reads it from, and the position it lands
// at in the row the computing node decodes. It covers every shape a paged
// scan ships:
//
//   - a stored row: every column, in place — the stored value itself, as a
//     scan without a projection ships it (a bare Fragment{Kinds: ...} has
//     this layout);
//   - a projected row: the projected columns, each at its schema position
//     in a row of schema width whose unshipped columns stay nil;
//   - a joined row: the outer columns (projected, or all), then the shipped
//     inner columns, in a row of the outer width followed by the inner
//     width;
//   - a partial-aggregate row: the GROUP BY columns, in order, from the
//     shipped key, then one AggState per slot from the shipped value.
type Layout struct {
	kinds      []table.Kind // column kinds of the scanned row
	innerKinds []table.Kind // column kinds of the looked-up inner row; nil unless joined
	cols       []int        // column each value is read from on the data node
	pos        []int        // position of each value in the decoded row
	outer      int          // leading values read from the scanned row; the rest from the inner row
	width      int          // decoded row width
	aggs       int          // aggregate slots the value carries after the key's group values
}

// Layout returns the layout of the rows a data node ships for f:
// partial-aggregate rows when f aggregates, joined rows when it carries a
// lookup, and projected or stored rows otherwise.
func (f *Fragment) Layout() Layout {
	if f.HasAggs() {
		n := len(f.GroupBy)
		return Layout{kinds: f.Kinds, cols: f.GroupBy, pos: allCols(n), outer: n, width: n + len(f.Aggs), aggs: len(f.Aggs)}
	}
	cols := f.Project
	if cols == nil {
		cols = allCols(len(f.Kinds))
	}
	l := Layout{kinds: f.Kinds, cols: cols, pos: cols, outer: len(cols), width: len(f.Kinds)}
	lk := f.Lookup
	if lk == nil {
		return l
	}
	inner := lk.Project
	if inner == nil {
		inner = allCols(len(lk.Kinds))
	}
	l.innerKinds = lk.Kinds
	n := len(cols) + len(inner)
	buf := make([]int, 2*n)
	l.cols = append(append(buf[:0:n], cols...), inner...)
	l.pos = buf[n:]
	for i, c := range l.cols {
		if i >= l.outer {
			c += l.width
		}
		l.pos[i] = c
	}
	l.width += len(lk.Kinds)
	return l
}

// identity holds 0, 1, 2, ...: the columns of an unprojected row, shared
// read-only by the layouts of tables no wider than it.
var identity = func() []int {
	out := make([]int, 256)
	for i := range out {
		out[i] = i
	}
	return out
}()

// allCols returns 0, 1, ..., n-1.
func allCols(n int) []int {
	if n <= len(identity) {
		return identity[:n:n]
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// OuterCols returns the columns of the scanned row the shipped value
// carries — for a joined row, its leading outer segment.
func (l *Layout) OuterCols() []int { return l.cols[:l.outer] }

// InnerCols returns the columns of the looked-up inner row a joined row
// carries after its outer segment; none for the other shapes.
func (l *Layout) InnerCols() []int { return l.cols[l.outer:] }

// Width returns the width of a decoded row.
func (l *Layout) Width() int { return l.width }

// Decoder returns a decoder for rows of this layout.
func (l Layout) Decoder() RowDecoder { return RowDecoder{Layout: l} }

// RowDecoder decodes shipped rows of one Layout. One decoder serves one
// scan: for joined rows it keeps the last outer segment it decoded.
type RowDecoder struct {
	Layout

	// Joined rows arrive grouped by outer row, so consecutive values
	// usually share a byte-identical outer segment. prevOuter/prevVals
	// memoize the last decoded outer segment: on a byte match the cached
	// values are copied instead of re-decoded, collapsing the fan-out
	// join's outer decode cost from O(matches) to O(outer rows). Sound
	// because the encoding is deterministic and self-delimiting: equal
	// leading bytes decode to equal outer values.
	prevOuter []byte
	prevVals  []any // the outer segment's values, in shipped order
}

// DecodeAppend decodes one shipped pair, appending the decoded row —
// Width values, unshipped positions nil — to dst and returning the
// extended slice; only a partial-aggregate row reads the key. Batch
// consumers decode a whole page into one slab this way.
func (rd *RowDecoder) DecodeAppend(key, val []byte, dst []any) ([]any, error) {
	base := len(dst)
	for i := 0; i < rd.width; i++ {
		dst = append(dst, nil)
	}
	row := dst[base:]
	src := val
	if rd.aggs > 0 {
		src = key
	}
	var d keys.Decoder
	d.Reset(src)
	memo := false
	if n := len(rd.prevOuter); n > 0 && n <= len(src) && bytes.Equal(src[:n], rd.prevOuter) {
		for i, v := range rd.prevVals {
			row[rd.pos[i]] = v
		}
		d.Reset(src[n:])
		memo = true
	}
	if !memo {
		if err := rd.decode(&d, 0, rd.outer, rd.kinds, row); err != nil {
			return nil, err
		}
		if rd.innerKinds != nil {
			rd.prevOuter = append(rd.prevOuter[:0], src[:len(src)-d.Remaining()]...)
			rd.prevVals = rd.prevVals[:0]
			for _, p := range rd.pos[:rd.outer] {
				rd.prevVals = append(rd.prevVals, row[p])
			}
		}
	}
	if err := rd.decode(&d, rd.outer, len(rd.cols), rd.innerKinds, row); err != nil {
		return nil, err
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("%w: trailing row bytes", ErrCorrupt)
	}
	if rd.aggs == 0 {
		return dst, nil
	}
	states, err := DecodeStates(val)
	if err != nil {
		return nil, err
	}
	if len(states) != rd.aggs {
		return nil, fmt.Errorf("%w: %d states for %d aggregates", ErrCorrupt, len(states), rd.aggs)
	}
	for i, s := range states {
		row[rd.outer+i] = s
	}
	return dst, nil
}

// decode reads shipped values [from, to), read from columns of the given
// kinds, into their positions in row.
func (l *Layout) decode(d *keys.Decoder, from, to int, kinds []table.Kind, row []any) error {
	for i := from; i < to; i++ {
		v, err := table.DecodeValue(d, kinds[l.cols[i]])
		if err != nil {
			return fmt.Errorf("fragment: shipped value %d: %w", i, err)
		}
		row[l.pos[i]] = v
	}
	return nil
}
