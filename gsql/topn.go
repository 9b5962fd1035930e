package gsql

import (
	"sort"

	"globaldb/gsql/fragment"
)

// topN retains the k rows that order first under an ORDER BY, replacing
// the drain-and-fully-sort path when a LIMIT bounds the result: admission
// is O(log k) per row against a max-heap of the current worst survivor, so
// `ORDER BY ... LIMIT k` over N rows costs O(N log k) comparisons and O(k)
// memory instead of materializing all N. Ties preserve arrival order
// (matching the stable sort it replaces): each row carries an arrival
// sequence number used as the final comparison key, so a late-arriving tie
// never displaces an earlier row.
type topN struct {
	orderBy []OrderItem
	exprs   []fragment.Expr // the ORDER BY keys, lowered and bound
	k       int64

	// Parallel heap arrays, max-heap ordered: heap[0] is the worst
	// (last-ordering) survivor — the next candidate for displacement.
	rows [][]any
	keys [][]any
	seqs []int64

	nextSeq int64
}

func newTopN(orderBy []OrderItem, exprs []fragment.Expr, k int64) *topN {
	if k < 0 {
		k = 0
	}
	return &topN{orderBy: orderBy, exprs: exprs, k: k}
}

// cmp orders two entries by the ORDER BY keys, breaking exact ties by
// arrival sequence so the ordering is total and stable.
func (t *topN) cmp(ka []any, sa int64, kb []any, sb int64) (int, error) {
	for i, o := range t.orderBy {
		c, err := compareNullable(ka[i], kb[i])
		if err != nil {
			return 0, err
		}
		if c == 0 {
			continue
		}
		if o.Desc {
			return -c, nil
		}
		return c, nil
	}
	switch {
	case sa < sb:
		return -1, nil
	case sa > sb:
		return 1, nil
	}
	return 0, nil
}

// tryAdmitKeys evaluates the ORDER BY keys over one combined row and
// reports whether the row belongs in the top k: always while the heap is
// filling, and only when it orders strictly before the current worst
// survivor once full. Rejected rows are never projected, which is
// what makes the scan-side work per dropped row O(keys) only.
func (t *topN) tryAdmitKeys(row []any) ([]any, bool, error) {
	if t.k == 0 {
		return nil, false, nil
	}
	keys := make([]any, len(t.exprs))
	if err := evalInto(t.exprs, row, keys); err != nil {
		return nil, false, err
	}
	if int64(len(t.rows)) < t.k {
		return keys, true, nil
	}
	// The candidate's sequence is newer than every survivor's, so a key
	// tie orders it after the root: admission requires strictly-before.
	c, err := t.cmp(keys, t.nextSeq, t.keys[0], t.seqs[0])
	if err != nil {
		return nil, false, err
	}
	return keys, c < 0, nil
}

// add inserts an admitted row, displacing the worst survivor when full.
func (t *topN) add(row, keys []any) error {
	seq := t.nextSeq
	t.nextSeq++
	if int64(len(t.rows)) < t.k {
		t.rows = append(t.rows, row)
		t.keys = append(t.keys, keys)
		t.seqs = append(t.seqs, seq)
		return t.siftUp(len(t.rows) - 1)
	}
	t.rows[0], t.keys[0], t.seqs[0] = row, keys, seq
	return t.siftDown(0)
}

// after reports whether entry i orders after entry j (the max-heap
// property compares on it).
func (t *topN) after(i, j int) (bool, error) {
	c, err := t.cmp(t.keys[i], t.seqs[i], t.keys[j], t.seqs[j])
	return c > 0, err
}

func (t *topN) siftUp(i int) error {
	for i > 0 {
		parent := (i - 1) / 2
		a, err := t.after(i, parent)
		if err != nil {
			return err
		}
		if !a {
			return nil
		}
		t.swap(i, parent)
		i = parent
	}
	return nil
}

func (t *topN) siftDown(i int) error {
	n := len(t.rows)
	for {
		largest := i
		for _, child := range [2]int{2*i + 1, 2*i + 2} {
			if child >= n {
				continue
			}
			a, err := t.after(child, largest)
			if err != nil {
				return err
			}
			if a {
				largest = child
			}
		}
		if largest == i {
			return nil
		}
		t.swap(i, largest)
		i = largest
	}
}

func (t *topN) swap(i, j int) {
	t.rows[i], t.rows[j] = t.rows[j], t.rows[i]
	t.keys[i], t.keys[j] = t.keys[j], t.keys[i]
	t.seqs[i], t.seqs[j] = t.seqs[j], t.seqs[i]
}

// sorted returns the surviving rows in ORDER BY order (stable: key ties
// stay in arrival order thanks to the sequence tiebreak).
func (t *topN) sorted() ([][]any, error) {
	idx := make([]int, len(t.rows))
	for i := range idx {
		idx[i] = i
	}
	var sortErr error
	sort.Slice(idx, func(a, b int) bool {
		c, err := t.cmp(t.keys[idx[a]], t.seqs[idx[a]], t.keys[idx[b]], t.seqs[idx[b]])
		if err != nil && sortErr == nil {
			sortErr = err
		}
		return c < 0
	})
	if sortErr != nil {
		return nil, sortErr
	}
	out := make([][]any, len(idx))
	for i, j := range idx {
		out[i] = t.rows[j]
	}
	return out, nil
}
