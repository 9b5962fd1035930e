package fragment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"regexp"
	"strings"
	"sync"
)

// This file is the one expression evaluator. Data nodes run it on pushed
// fragments next to the data; the computing node runs it on the trees gsql
// lowers every SQL expression to at plan time — residual filters,
// projections, sort and group keys, DML values, HAVING and final
// aggregation. Its semantics are SQL's: three-valued logic, NULL
// propagation, mixed int/float numeric comparison, LIKE with % and _. With
// one evaluator a pushed predicate cannot accept different rows than the
// same predicate evaluated at the computing node; gsql's differential tests
// still run every generated query both ways and require byte-identical
// results.

// ErrType is returned when an expression combines incompatible values
// (gsql.ErrType aliases it).
var ErrType = errors.New("gsql: type error")

// Eval evaluates an expression against one decoded row.
func Eval(e *Expr, row []any) (any, error) {
	switch e.Op {
	case OpConst:
		return e.Val, nil
	case OpCol:
		if e.Col < 0 || e.Col >= len(row) {
			return nil, fmt.Errorf("fragment: column %d of %d", e.Col, len(row))
		}
		return row[e.Col], nil
	case OpParam:
		return nil, fmt.Errorf("fragment: unbound parameter $%d", e.Col)
	case OpAnd:
		return evalAndOr(e, row, true)
	case OpOr:
		return evalAndOr(e, row, false)
	case OpNot:
		v, err := Eval(&e.Args[0], row)
		if err != nil || v == nil {
			return nil, err
		}
		b, ok := v.(bool)
		if !ok {
			return nil, fmt.Errorf("%w: NOT %T", ErrType, v)
		}
		return !b, nil
	case OpNeg:
		v, err := Eval(&e.Args[0], row)
		if err != nil || v == nil {
			return nil, err
		}
		switch n := v.(type) {
		case int64:
			return -n, nil
		case float64:
			return -n, nil
		}
		return nil, fmt.Errorf("%w: -%T", ErrType, v)
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		lv, err := Eval(&e.Args[0], row)
		if err != nil {
			return nil, err
		}
		rv, err := Eval(&e.Args[1], row)
		if err != nil {
			return nil, err
		}
		if lv == nil || rv == nil {
			return nil, nil
		}
		c, err := Compare(lv, rv)
		if err != nil {
			return nil, err
		}
		switch e.Op {
		case OpEq:
			return c == 0, nil
		case OpNe:
			return c != 0, nil
		case OpLt:
			return c < 0, nil
		case OpLe:
			return c <= 0, nil
		case OpGt:
			return c > 0, nil
		default:
			return c >= 0, nil
		}
	case OpAdd, OpSub, OpMul, OpDiv, OpMod:
		lv, err := Eval(&e.Args[0], row)
		if err != nil {
			return nil, err
		}
		rv, err := Eval(&e.Args[1], row)
		if err != nil {
			return nil, err
		}
		if lv == nil || rv == nil {
			return nil, nil
		}
		return Arith(e.Op.String(), lv, rv)
	case OpLike:
		lv, err := Eval(&e.Args[0], row)
		if err != nil {
			return nil, err
		}
		rv, err := Eval(&e.Args[1], row)
		if err != nil {
			return nil, err
		}
		if lv == nil || rv == nil {
			return nil, nil
		}
		s, sok := lv.(string)
		pat, pok := rv.(string)
		if !sok || !pok {
			return nil, fmt.Errorf("%w: %T LIKE %T", ErrType, lv, rv)
		}
		return LikeMatch(s, pat)
	case OpIsNull, OpNotNull:
		v, err := Eval(&e.Args[0], row)
		if err != nil {
			return nil, err
		}
		return (v == nil) == (e.Op == OpIsNull), nil
	case OpIn, OpNotIn:
		v, err := Eval(&e.Args[0], row)
		if err != nil {
			return nil, err
		}
		if v == nil {
			return nil, nil
		}
		neg := e.Op == OpNotIn
		for i := 1; i < len(e.Args); i++ {
			iv, err := Eval(&e.Args[i], row)
			if err != nil {
				return nil, err
			}
			if iv == nil {
				continue
			}
			c, err := Compare(v, iv)
			if err != nil {
				return nil, err
			}
			if c == 0 {
				return !neg, nil
			}
		}
		return neg, nil
	case OpBetween, OpNotBetween:
		v, err := Eval(&e.Args[0], row)
		if err != nil {
			return nil, err
		}
		lo, err := Eval(&e.Args[1], row)
		if err != nil {
			return nil, err
		}
		hi, err := Eval(&e.Args[2], row)
		if err != nil {
			return nil, err
		}
		if v == nil || lo == nil || hi == nil {
			return nil, nil
		}
		cl, err := Compare(v, lo)
		if err != nil {
			return nil, err
		}
		ch, err := Compare(v, hi)
		if err != nil {
			return nil, err
		}
		return (cl >= 0 && ch <= 0) == (e.Op == OpBetween), nil
	case OpCoalesce:
		for i := range e.Args {
			v, err := Eval(&e.Args[i], row)
			if err != nil {
				return nil, err
			}
			if v != nil {
				return v, nil
			}
		}
		return nil, nil
	case OpAbs, OpLower, OpUpper, OpLength:
		v, err := Eval(&e.Args[0], row)
		if err != nil || v == nil {
			return nil, err
		}
		switch e.Op {
		case OpAbs:
			switch n := v.(type) {
			case int64:
				if n < 0 {
					return -n, nil
				}
				return n, nil
			case float64:
				return math.Abs(n), nil
			}
			return nil, fmt.Errorf("%w: ABS(%T)", ErrType, v)
		case OpLower:
			s, ok := v.(string)
			if !ok {
				return nil, fmt.Errorf("%w: LOWER(%T)", ErrType, v)
			}
			return strings.ToLower(s), nil
		case OpUpper:
			s, ok := v.(string)
			if !ok {
				return nil, fmt.Errorf("%w: UPPER(%T)", ErrType, v)
			}
			return strings.ToUpper(s), nil
		default:
			switch s := v.(type) {
			case string:
				return int64(len(s)), nil
			case []byte:
				return int64(len(s)), nil
			}
			return nil, fmt.Errorf("%w: LENGTH(%T)", ErrType, v)
		}
	default:
		return nil, fmt.Errorf("fragment: cannot evaluate %v", e.Op)
	}
}

func evalAndOr(e *Expr, row []any, isAnd bool) (any, error) {
	lv, err := Eval(&e.Args[0], row)
	if err != nil {
		return nil, err
	}
	if lb, ok := lv.(bool); ok && lb != isAnd {
		return lb, nil // short circuit: false AND _, true OR _
	}
	rv, err := Eval(&e.Args[1], row)
	if err != nil {
		return nil, err
	}
	if rb, ok := rv.(bool); ok && rb != isAnd {
		return rb, nil
	}
	if lv == nil || rv == nil {
		return nil, nil
	}
	lb, lok := lv.(bool)
	rb, rok := rv.(bool)
	if !lok || !rok {
		return nil, fmt.Errorf("%w: %T AND/OR %T", ErrType, lv, rv)
	}
	if isAnd {
		return lb && rb, nil
	}
	return lb || rb, nil
}

// EvalCond evaluates e as a condition: only TRUE passes, NULL does not (as
// in SQL), and any other value is a type error. A nil condition passes
// every row.
func EvalCond(e *Expr, row []any) (bool, error) {
	if e == nil {
		return true, nil
	}
	v, err := Eval(e, row)
	if err != nil {
		return false, err
	}
	switch x := v.(type) {
	case nil:
		return false, nil
	case bool:
		return x, nil
	default:
		return false, fmt.Errorf("%w: %T used as a condition", ErrType, v)
	}
}

// FilterRow reports whether the fragment's filter accepts the row (a nil
// filter accepts everything; NULL results drop the row, as in SQL).
func (f *Fragment) FilterRow(row []any) (bool, error) { return EvalCond(f.Filter, row) }

// ---- Batch evaluation ----
//
// The batch entry points below are the kernel's vectorized face: they
// evaluate one expression over a RowBatch, producing a selection vector
// (FilterBatch) or an output value vector (EvalBatch) instead of being
// called once per row. Semantics are identical to the scalar evaluator by
// construction — the generic path calls Eval row by row over a reused row
// view, and the comparison fast path runs the same Compare kernel in the
// same argument order — so a batched data node accepts exactly the rows a
// row-at-a-time one would.

// FilterBatch evaluates the fragment's filter over rows [from, b.Len()) of
// the batch, appending the indexes of accepted rows to sel (the selection
// vector) until maxKeep rows are kept (maxKeep <= 0 keeps all). It returns
// the extended selection vector and how many rows were evaluated, which
// callers use for exact examined-row accounting when an output budget stops
// the walk mid-batch. A nil filter accepts every row; NULL results drop the
// row, as in SQL.
func (f *Fragment) FilterBatch(b *RowBatch, from, maxKeep int, sel []int) ([]int, int, error) {
	n := b.Len()
	evaluated, kept := 0, 0
	if f.Filter == nil {
		for r := from; r < n; r++ {
			evaluated++
			sel = append(sel, r)
			if kept++; maxKeep > 0 && kept >= maxKeep {
				break
			}
		}
		return sel, evaluated, nil
	}
	if col, cval, op, swapped, ok := constCmpFilter(f.Filter); ok {
		colv := b.cols[col]
		valid := b.valid[col]
		for r := from; r < n; {
			// The validity bitmap lets a NULL-heavy stretch drop a whole
			// word of rows at a time: NULL never passes a comparison.
			if r&63 == 0 && r+64 <= n && valid[r>>6] == 0 {
				evaluated += 64
				r += 64
				continue
			}
			v := colv[r]
			r++
			evaluated++
			if v == nil || cval == nil {
				continue
			}
			lv, rv := v, cval
			if swapped {
				lv, rv = cval, v
			}
			c, err := Compare(lv, rv)
			if err != nil {
				return sel, evaluated, err
			}
			if !cmpAccepts(op, c) {
				continue
			}
			sel = append(sel, r-1)
			if kept++; maxKeep > 0 && kept >= maxKeep {
				break
			}
		}
		return sel, evaluated, nil
	}
	for r := from; r < n; r++ {
		evaluated++
		keep, err := f.FilterRow(b.rowView(r))
		if err != nil {
			return sel, evaluated, err
		}
		if !keep {
			continue
		}
		sel = append(sel, r)
		if kept++; maxKeep > 0 && kept >= maxKeep {
			break
		}
	}
	return sel, evaluated, nil
}

// constCmpFilter recognizes the dominant pushed-filter shape — a single
// comparison between one column and one constant — so FilterBatch can run
// it as a tight loop over the column vector.
func constCmpFilter(e *Expr) (col int, cval any, op Op, swapped, ok bool) {
	switch e.Op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
	default:
		return 0, nil, 0, false, false
	}
	l, r := &e.Args[0], &e.Args[1]
	switch {
	case l.Op == OpCol && r.Op == OpConst:
		return l.Col, r.Val, e.Op, false, true
	case l.Op == OpConst && r.Op == OpCol:
		return r.Col, l.Val, e.Op, true, true
	}
	return 0, nil, 0, false, false
}

// cmpAccepts maps a comparison opcode over the three-way Compare result.
func cmpAccepts(op Op, c int) bool {
	switch op {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	default:
		return c >= 0
	}
}

// EvalBatch evaluates e once per selected row, writing the result for row
// sel[i] into out[i]. Column references and constants read the batch
// directly; everything else runs the scalar evaluator over a reused row
// view.
func EvalBatch(e *Expr, b *RowBatch, sel []int, out []any) error {
	switch e.Op {
	case OpConst:
		for i := range sel {
			out[i] = e.Val
		}
		return nil
	case OpCol:
		colv := b.cols[e.Col]
		for i, r := range sel {
			out[i] = colv[r]
		}
		return nil
	}
	for i, r := range sel {
		v, err := Eval(e, b.rowView(r))
		if err != nil {
			return err
		}
		out[i] = v
	}
	return nil
}

// Compare orders two non-nil SQL values: mixed int64/float64 compare
// numerically; otherwise both sides must share a type.
func Compare(a, b any) (int, error) {
	switch x := a.(type) {
	case int64:
		switch y := b.(type) {
		case int64:
			switch {
			case x < y:
				return -1, nil
			case x > y:
				return 1, nil
			}
			return 0, nil
		case float64:
			return cmpFloat(float64(x), y), nil
		}
	case float64:
		switch y := b.(type) {
		case int64:
			return cmpFloat(x, float64(y)), nil
		case float64:
			return cmpFloat(x, y), nil
		}
	case string:
		if y, ok := b.(string); ok {
			return strings.Compare(x, y), nil
		}
	case []byte:
		if y, ok := b.([]byte); ok {
			return strings.Compare(string(x), string(y)), nil
		}
	case bool:
		if y, ok := b.(bool); ok {
			switch {
			case !x && y:
				return -1, nil
			case x && !y:
				return 1, nil
			}
			return 0, nil
		}
	}
	return 0, fmt.Errorf("%w: cannot compare %T and %T", ErrType, a, b)
}

func cmpFloat(x, y float64) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	default:
		return 0
	}
}

// Arith applies +, -, *, /, % to two non-nil values. String concatenation
// via + is a convenience extension.
func Arith(op string, a, b any) (any, error) {
	ai, aIsInt := a.(int64)
	bi, bIsInt := b.(int64)
	if aIsInt && bIsInt {
		switch op {
		case "+":
			return ai + bi, nil
		case "-":
			return ai - bi, nil
		case "*":
			return ai * bi, nil
		case "/":
			if bi == 0 {
				return nil, fmt.Errorf("gsql: division by zero")
			}
			return ai / bi, nil
		case "%":
			if bi == 0 {
				return nil, fmt.Errorf("gsql: division by zero")
			}
			return ai % bi, nil
		}
	}
	af, aOK := toFloat(a)
	bf, bOK := toFloat(b)
	if !aOK || !bOK {
		if op == "+" {
			as, aStr := a.(string)
			bs, bStr := b.(string)
			if aStr && bStr {
				return as + bs, nil
			}
		}
		return nil, fmt.Errorf("%w: %T %s %T", ErrType, a, op, b)
	}
	switch op {
	case "+":
		return af + bf, nil
	case "-":
		return af - bf, nil
	case "*":
		return af * bf, nil
	case "/":
		if bf == 0 {
			return nil, fmt.Errorf("gsql: division by zero")
		}
		return af / bf, nil
	case "%":
		if bf == 0 {
			return nil, fmt.Errorf("gsql: division by zero")
		}
		return math.Mod(af, bf), nil
	}
	return nil, fmt.Errorf("gsql: unknown operator %q", op)
}

func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	default:
		return 0, false
	}
}

// likeCache memoizes compiled LIKE patterns.
var likeCache sync.Map // string -> *regexp.Regexp

// LikeMatch implements SQL LIKE with % and _ wildcards.
func LikeMatch(s, pattern string) (bool, error) {
	if cached, ok := likeCache.Load(pattern); ok {
		return cached.(*regexp.Regexp).MatchString(s), nil
	}
	var sb strings.Builder
	sb.WriteString("(?s)^")
	for _, r := range pattern {
		switch r {
		case '%':
			sb.WriteString(".*")
		case '_':
			sb.WriteString(".")
		default:
			sb.WriteString(regexp.QuoteMeta(string(r)))
		}
	}
	sb.WriteString("$")
	re, err := regexp.Compile(sb.String())
	if err != nil {
		return false, fmt.Errorf("gsql: bad LIKE pattern %q: %v", pattern, err)
	}
	likeCache.Store(pattern, re)
	return re.MatchString(s), nil
}

// ---- Partial aggregate states ----

// AggState is one aggregate slot's state over one group: a data node's
// partial state over its shard, or the computing node's own when it
// aggregates rows itself. States from different shards merge commutatively
// and associatively, which is what lets the coordinator combine them in
// whatever order the cross-shard merge delivers groups. AVG is carried as
// SumF+Count (the classic sum+count decomposition).
type AggState struct {
	Count   int64
	SumI    int64
	SumF    float64
	IsFloat bool
	Min     any
	Max     any
}

// Accumulate folds one row into the state under the given spec. NULL
// argument values are skipped, as SQL aggregates require.
func (st *AggState) Accumulate(spec AggSpec, row []any) error {
	if spec.Star {
		st.Count++
		return nil
	}
	v, err := Eval(spec.Arg, row)
	if err != nil {
		return err
	}
	return st.Fold(spec.Kind, v)
}

// Fold folds one already-evaluated argument value into the state — the
// entry point batch evaluation uses after EvalBatch has produced the
// argument vector. NULL values are skipped, as SQL aggregates require.
func (st *AggState) Fold(kind AggKind, v any) error {
	if v == nil {
		return nil
	}
	st.Count++
	switch kind {
	case AggCount:
		return nil
	case AggSum, AggAvg:
		switch x := v.(type) {
		case int64:
			st.SumI += x
			st.SumF += float64(x)
		case float64:
			st.IsFloat = true
			st.SumF += x
		default:
			return fmt.Errorf("%w: %v(%T)", ErrType, kind, v)
		}
		return nil
	case AggMin:
		if st.Min == nil {
			st.Min = v
			return nil
		}
		c, err := Compare(v, st.Min)
		if err != nil {
			return err
		}
		if c < 0 {
			st.Min = v
		}
		return nil
	case AggMax:
		if st.Max == nil {
			st.Max = v
			return nil
		}
		c, err := Compare(v, st.Max)
		if err != nil {
			return err
		}
		if c > 0 {
			st.Max = v
		}
		return nil
	default:
		return fmt.Errorf("fragment: unknown aggregate %v", kind)
	}
}

// Merge folds another shard's partial state for the same group and slot.
func (st *AggState) Merge(o AggState) error {
	st.Count += o.Count
	st.SumI += o.SumI
	st.SumF += o.SumF
	st.IsFloat = st.IsFloat || o.IsFloat
	if o.Min != nil {
		if st.Min == nil {
			st.Min = o.Min
		} else if c, err := Compare(o.Min, st.Min); err != nil {
			return err
		} else if c < 0 {
			st.Min = o.Min
		}
	}
	if o.Max != nil {
		if st.Max == nil {
			st.Max = o.Max
		} else if c, err := Compare(o.Max, st.Max); err != nil {
			return err
		} else if c > 0 {
			st.Max = o.Max
		}
	}
	return nil
}

// Final computes the aggregate's SQL result from the merged state (SUM
// and AVG over zero rows are NULL; COUNT is 0).
func (st AggState) Final(kind AggKind) any {
	switch kind {
	case AggCount:
		return st.Count
	case AggSum:
		if st.Count == 0 {
			return nil
		}
		if st.IsFloat {
			return st.SumF
		}
		return st.SumI
	case AggAvg:
		if st.Count == 0 {
			return nil
		}
		return st.SumF / float64(st.Count)
	case AggMin:
		return st.Min
	case AggMax:
		return st.Max
	default:
		return nil
	}
}

// State wire format: per state, a flags byte, then count / sumI / sumF,
// then the optional min and max values.
const (
	stFloat byte = 1 << iota
	stHasMin
	stHasMax
)

// EncodeStates serializes one group's aggregate states (one per fragment
// agg slot) as the partial row's value.
func EncodeStates(states []AggState) ([]byte, error) {
	var b []byte
	for _, st := range states {
		flags := byte(0)
		if st.IsFloat {
			flags |= stFloat
		}
		if st.Min != nil {
			flags |= stHasMin
		}
		if st.Max != nil {
			flags |= stHasMax
		}
		b = append(b, flags)
		b = binary.BigEndian.AppendUint64(b, uint64(st.Count))
		b = binary.BigEndian.AppendUint64(b, uint64(st.SumI))
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(st.SumF))
		var err error
		if st.Min != nil {
			if b, err = appendValue(b, st.Min); err != nil {
				return nil, err
			}
		}
		if st.Max != nil {
			if b, err = appendValue(b, st.Max); err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

// DecodeStates parses a partial row's value back into aggregate states.
func DecodeStates(b []byte) ([]AggState, error) {
	var out []AggState
	for len(b) > 0 {
		if len(b) < 25 {
			return nil, ErrCorrupt
		}
		flags := b[0]
		st := AggState{
			Count:   int64(binary.BigEndian.Uint64(b[1:9])),
			SumI:    int64(binary.BigEndian.Uint64(b[9:17])),
			SumF:    math.Float64frombits(binary.BigEndian.Uint64(b[17:25])),
			IsFloat: flags&stFloat != 0,
		}
		b = b[25:]
		var err error
		if flags&stHasMin != 0 {
			if st.Min, b, err = decodeValue(b); err != nil {
				return nil, err
			}
		}
		if flags&stHasMax != 0 {
			if st.Max, b, err = decodeValue(b); err != nil {
				return nil, err
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// MergeEncodedStates merges two encoded partial-state rows for the same
// group key — the coordinator's cross-shard combine step. Both sides must
// carry the same number of slots (they come from the same fragment).
func MergeEncodedStates(a, b []byte) ([]byte, error) {
	sa, err := DecodeStates(a)
	if err != nil {
		return nil, err
	}
	sb, err := DecodeStates(b)
	if err != nil {
		return nil, err
	}
	if len(sa) != len(sb) {
		return nil, fmt.Errorf("fragment: merging %d states with %d", len(sa), len(sb))
	}
	for i := range sa {
		if err := sa[i].Merge(sb[i]); err != nil {
			return nil, err
		}
	}
	return EncodeStates(sa)
}
