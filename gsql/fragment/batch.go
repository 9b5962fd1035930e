package fragment

import (
	"fmt"

	"globaldb/internal/keys"
	"globaldb/internal/table"
)

// This file defines RowBatch, the batch-native unit of data flow through
// the execution pipeline: a column-major batch of decoded rows backed by a
// reusable arena. A data node decodes one storage page into a RowBatch
// exactly once, evaluates filters and aggregate arguments over it with the
// batch entry points in eval.go (producing selection vectors rather than
// copying survivors), and encodes the survivors for the wire. The arena
// owns every backing slab, so steady-state page evaluation performs no
// per-row allocations beyond the boxed values themselves.

// RowBatch is a column-major batch of decoded rows. Column c's values live
// in Col(c) (nil entries are SQL NULL), with a per-column validity bitmap
// maintained alongside so kernels can test or skip NULLs a word at a time.
// Batches are created by an Arena and are invalidated by the arena's next
// NewBatch call.
type RowBatch struct {
	kinds []table.Kind
	cols  [][]any
	valid [][]uint64 // valid[c] bit r set = row r of column c is non-NULL
	n     int
	a     *Arena
}

// Len returns the number of rows appended so far.
func (b *RowBatch) Len() int { return b.n }

// Col returns column c's value vector (length Len). Callers must treat it
// as read-only.
func (b *RowBatch) Col(c int) []any { return b.cols[c] }

// IsNull reports whether row r of column c is NULL, via the validity
// bitmap.
func (b *RowBatch) IsNull(c, r int) bool {
	return b.valid[c][r>>6]&(1<<(uint(r)&63)) == 0
}

// AppendStored decodes one stored row value (the same encoding
// Schema.EncodeRow produces) into the batch's columns. The value is decoded
// exactly once; every later expression reference reads the decoded column
// vectors.
func (b *RowBatch) AppendStored(val []byte) error {
	var d keys.Decoder
	d.Reset(val)
	r := b.n
	for c, k := range b.kinds {
		v, err := decodeKeyValue(&d, k)
		if err != nil {
			return fmt.Errorf("fragment: column %d: %w", c, err)
		}
		b.cols[c] = append(b.cols[c], v)
		if v != nil {
			b.valid[c][r>>6] |= 1 << (uint(r) & 63)
		}
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("%w: trailing row bytes", ErrCorrupt)
	}
	b.n++
	return nil
}

// AppendStoredNeeded is AppendStored restricted to a column mask: columns
// whose need entry is false are skipped byte-wise without materializing a
// value (no boxing, no string copy) and read back as NULL. Callers must
// guarantee that no evaluated expression or shipped projection references
// a skipped column — Fragment.NeededCols computes exactly that set. A nil
// mask decodes every column.
func (b *RowBatch) AppendStoredNeeded(val []byte, need []bool) error {
	if need == nil {
		return b.AppendStored(val)
	}
	var d keys.Decoder
	d.Reset(val)
	r := b.n
	for c := range b.kinds {
		if !need[c] {
			if err := d.Skip(); err != nil {
				return fmt.Errorf("fragment: column %d: %w", c, err)
			}
			b.cols[c] = append(b.cols[c], nil)
			continue
		}
		v, err := decodeKeyValue(&d, b.kinds[c])
		if err != nil {
			return fmt.Errorf("fragment: column %d: %w", c, err)
		}
		b.cols[c] = append(b.cols[c], v)
		if v != nil {
			b.valid[c][r>>6] |= 1 << (uint(r) & 63)
		}
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("%w: trailing row bytes", ErrCorrupt)
	}
	b.n++
	return nil
}

// rowView copies row r into the arena's scratch row buffer and returns it —
// the bridge from the column-major batch to the row-at-a-time scalar
// evaluator. The returned slice is valid until the next rowView call on the
// same arena.
func (b *RowBatch) rowView(r int) []any {
	buf := b.a.rowbuf[:len(b.kinds)]
	for c := range b.kinds {
		buf[c] = b.cols[c][r]
	}
	return buf
}

// Arena owns the reusable backing slabs for one evaluator's batches: the
// value slab the column vectors are carved from, the validity bitmap words,
// the selection vector, and scratch buffers for row views and expression
// outputs. One arena serves one page-evaluation loop at a time; reusing it
// across pages is what makes the batch pipeline allocation-free in steady
// state. The zero value is ready to use.
type Arena struct {
	vals   []any
	bits   []uint64
	colHdr [][]any
	bitHdr [][]uint64
	rowbuf []any
	sel    []int
	out    []any
	batch  RowBatch
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// NewBatch returns an empty batch for rows of the given column kinds with
// capacity for capRows rows, reusing the arena's slabs. It invalidates the
// arena's previously returned batch, selection vector and output buffer.
func (a *Arena) NewBatch(kinds []table.Kind, capRows int) *RowBatch {
	ncols := len(kinds)
	if need := ncols * capRows; cap(a.vals) < need {
		a.vals = make([]any, need)
	}
	words := (capRows + 63) / 64
	if need := ncols * words; cap(a.bits) < need {
		a.bits = make([]uint64, need)
	} else {
		clear(a.bits[:ncols*words])
	}
	if cap(a.colHdr) < ncols {
		a.colHdr = make([][]any, ncols)
		a.bitHdr = make([][]uint64, ncols)
	}
	if cap(a.rowbuf) < ncols {
		a.rowbuf = make([]any, ncols)
	}
	cols := a.colHdr[:ncols]
	valid := a.bitHdr[:ncols]
	for c := 0; c < ncols; c++ {
		off := c * capRows
		cols[c] = a.vals[off : off : off+capRows]
		valid[c] = a.bits[c*words : (c+1)*words]
	}
	a.batch = RowBatch{kinds: kinds, cols: cols, valid: valid, a: a}
	return &a.batch
}

// Sel returns the arena's selection vector reset to length zero with
// capacity for at least n entries.
func (a *Arena) Sel(n int) []int {
	if cap(a.sel) < n {
		a.sel = make([]int, 0, n)
	}
	return a.sel[:0]
}

// Out returns the arena's expression-output vector with length n.
func (a *Arena) Out(n int) []any {
	if cap(a.out) < n {
		a.out = make([]any, n)
	}
	return a.out[:n]
}
