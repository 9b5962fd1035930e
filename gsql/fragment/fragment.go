// Package fragment defines GlobalDB's serializable physical plan fragments:
// the filter / projection / partial-aggregate specification a computing node
// attaches to a paged scan RPC so that a data node can execute it next to
// the data. A fragment crosses the (simulated) WAN as opaque bytes — the
// Encode/Decode pair is the wire format — which keeps the data node
// stateless: every ScanPage request carries everything needed to evaluate
// it at the request's snapshot timestamp, on the read-write path and the
// read-on-replica path alike.
//
// Expr is also the only expression form the system evaluates: gsql lowers
// every SQL expression to an Expr at plan time, and the computing node runs
// its residual filters, projections, sort and group keys and final
// aggregation with the same evaluator (eval.go) the data nodes run on pushed
// fragments. A predicate therefore accepts the same rows wherever it runs;
// the differential tests in gsql assert this byte-for-byte.
//
// Aggregation is split DN-partial / CN-final: data nodes fold matching rows
// into per-group AggStates (COUNT/SUM/MIN/MAX, with AVG carried as
// sum+count) keyed by a memcomparable group key, and the coordinator merges
// the per-shard partial states where the cross-shard merge cursor sees
// equal group keys side by side.
package fragment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"globaldb/internal/keys"
	"globaldb/internal/table"
)

// Op is an expression node opcode.
type Op uint8

// Expression opcodes. Binary comparison and arithmetic ops take two args;
// OpNot and OpNeg one; OpIn one probe plus any number of list items;
// OpBetween three (x, lo, hi); scalar functions their natural arity.
const (
	OpConst Op = iota + 1 // constant value (Val)
	OpCol                 // column reference by storage position (Col)
	OpParam               // statement parameter (Col is the 1-based index); resolved by Bind
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpNot
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpLike
	OpIsNull
	OpNotNull
	OpIn
	OpNotIn
	OpBetween
	OpNotBetween
	OpNeg
	OpAbs
	OpLower
	OpUpper
	OpLength
	OpCoalesce
)

var opNames = map[Op]string{
	OpConst: "const", OpCol: "col", OpParam: "param",
	OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "AND", OpOr: "OR", OpNot: "NOT",
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpLike: "LIKE", OpIsNull: "IS NULL", OpNotNull: "IS NOT NULL",
	OpIn: "IN", OpNotIn: "NOT IN", OpBetween: "BETWEEN", OpNotBetween: "NOT BETWEEN",
	OpNeg: "-", OpAbs: "ABS", OpLower: "LOWER", OpUpper: "UPPER",
	OpLength: "LENGTH", OpCoalesce: "COALESCE",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Expr is one node of a serializable expression tree. Column references use
// storage positions (not names), and constants are plain SQL values, so a
// tree is self-contained: a data node needs no catalog access to evaluate
// it against a decoded row.
type Expr struct {
	Op   Op
	Col  int    // OpCol: column position; OpParam: 1-based parameter index
	Val  any    // OpConst: int64, float64, string, []byte, bool, or nil
	Args []Expr // operands, in operator order
}

// AggKind is a partial aggregate function.
type AggKind uint8

// Partial aggregate kinds. Avg is carried as sum+count in one state and
// finalized at the coordinator.
const (
	AggCount AggKind = iota + 1
	AggSum
	AggAvg
	AggMin
	AggMax
)

var aggNames = map[AggKind]string{
	AggCount: "COUNT", AggSum: "SUM", AggAvg: "AVG", AggMin: "MIN", AggMax: "MAX",
}

func (k AggKind) String() string {
	if s, ok := aggNames[k]; ok {
		return s
	}
	return fmt.Sprintf("AggKind(%d)", uint8(k))
}

// AggSpec is one partial aggregate slot: the function, and either Star
// (COUNT(*)) or an argument expression evaluated per matching row.
type AggSpec struct {
	Kind AggKind
	Star bool
	Arg  *Expr // nil when Star
}

// Fragment is the unit of DN-side execution attached to a paged scan. All
// parts are optional: a nil Filter passes every row, a nil Project ships
// full rows, and empty Aggs means a plain (filtered, projected) row scan.
// With Aggs set, the scan's pages carry per-group partial states instead of
// rows: Key is the memcomparable encoding of the GroupBy column values (so
// the coordinator's cross-shard merge sees equal groups adjacent), Value
// the encoded AggStates.
type Fragment struct {
	// Kinds are the scanned table's column kinds in storage order — what a
	// data node needs to decode stored row values without a catalog.
	Kinds []table.Kind
	// Filter drops rows for which it does not evaluate to TRUE (SQL
	// three-valued logic: NULL drops).
	Filter *Expr
	// Project lists the column positions to keep in shipped rows; nil ships
	// the full row. Ignored when Aggs is non-empty.
	Project []int
	// GroupBy lists the column positions forming the group key.
	GroupBy []int
	// Aggs are the partial aggregate slots, in coordinator slot order.
	Aggs []AggSpec
	// Lookup, when set, turns the scan into a pushed lookup join: for every
	// row the filter keeps, the data node looks up the co-located inner
	// table rows keyed by Lookup.KeyExprs over the outer row and ships
	// joined rows (outer projected columns followed by the shipped inner
	// columns). Mutually exclusive with Aggs.
	Lookup *Lookup
}

// HasAggs reports whether the fragment produces partial-aggregate rows
// rather than (filtered, projected) table rows.
func (f *Fragment) HasAggs() bool { return len(f.Aggs) > 0 }

// NeededCols reports which storage columns the fragment's evaluation
// actually reads: filter columns, plus — depending on the fragment shape —
// group-by and aggregate-argument columns, lookup key columns, and the
// shipped projection. A plain row scan with a nil Project ships the raw
// stored value, so only the filter's columns are needed; a lookup join
// with a nil Project re-encodes the full outer row, so every column is.
// Executors use the mask to skip decoding (and boxing) unreferenced
// columns entirely.
func (f *Fragment) NeededCols() []bool {
	need := make([]bool, len(f.Kinds))
	exprCols(f.Filter, need)
	if f.HasAggs() {
		for _, c := range f.GroupBy {
			need[c] = true
		}
		for _, a := range f.Aggs {
			exprCols(a.Arg, need)
		}
		return need
	}
	if f.Lookup != nil {
		for i := range f.Lookup.KeyExprs {
			exprCols(&f.Lookup.KeyExprs[i], need)
		}
		if f.Project == nil {
			for i := range need {
				need[i] = true
			}
			return need
		}
	}
	for _, c := range f.Project {
		need[c] = true
	}
	return need
}

// exprCols marks the storage columns referenced by e in need.
func exprCols(e *Expr, need []bool) {
	if e == nil {
		return
	}
	if e.Op == OpCol && e.Col >= 0 && e.Col < len(need) {
		need[e.Col] = true
	}
	for i := range e.Args {
		exprCols(&e.Args[i], need)
	}
}

// ErrCorrupt is returned when decoding malformed fragment or state bytes.
var ErrCorrupt = errors.New("fragment: corrupt encoding")

// ---- Wire format ----
//
// The codec is a compact hand-rolled binary format (version byte, uvarint
// lengths, type-tagged values). It exists to make the fragment genuinely
// serializable at the RPC boundary rather than a shared in-process pointer:
// the data node reconstructs the fragment from bytes on every request.

const wireVersion = 1

// Value type tags for constants and aggregate bounds.
const (
	valNil byte = iota
	valInt
	valFloat
	valString
	valBytes
	valBool
)

func appendValue(b []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(b, valNil), nil
	case int64:
		b = append(b, valInt)
		return binary.BigEndian.AppendUint64(b, uint64(x)), nil
	case float64:
		b = append(b, valFloat)
		return binary.BigEndian.AppendUint64(b, math.Float64bits(x)), nil
	case string:
		b = append(b, valString)
		b = binary.AppendUvarint(b, uint64(len(x)))
		return append(b, x...), nil
	case []byte:
		b = append(b, valBytes)
		b = binary.AppendUvarint(b, uint64(len(x)))
		return append(b, x...), nil
	case bool:
		if x {
			return append(b, valBool, 1), nil
		}
		return append(b, valBool, 0), nil
	default:
		return nil, fmt.Errorf("fragment: unsupported value type %T", v)
	}
}

func decodeValue(b []byte) (any, []byte, error) {
	if len(b) == 0 {
		return nil, nil, ErrCorrupt
	}
	tag, b := b[0], b[1:]
	switch tag {
	case valNil:
		return nil, b, nil
	case valInt:
		if len(b) < 8 {
			return nil, nil, ErrCorrupt
		}
		return int64(binary.BigEndian.Uint64(b[:8])), b[8:], nil
	case valFloat:
		if len(b) < 8 {
			return nil, nil, ErrCorrupt
		}
		return math.Float64frombits(binary.BigEndian.Uint64(b[:8])), b[8:], nil
	case valString:
		n, b, err := decodeLen(b)
		if err != nil || len(b) < n {
			return nil, nil, ErrCorrupt
		}
		return string(b[:n]), b[n:], nil
	case valBytes:
		n, b, err := decodeLen(b)
		if err != nil || len(b) < n {
			return nil, nil, ErrCorrupt
		}
		return append([]byte(nil), b[:n]...), b[n:], nil
	case valBool:
		if len(b) < 1 {
			return nil, nil, ErrCorrupt
		}
		return b[0] != 0, b[1:], nil
	default:
		return nil, nil, fmt.Errorf("%w: value tag %#x", ErrCorrupt, tag)
	}
}

func decodeLen(b []byte) (int, []byte, error) {
	v, n := binary.Uvarint(b)
	// Reject lengths that do not fit a non-negative int32: a hostile
	// uvarint must never reach make() as a huge or negative length.
	if n <= 0 || v > math.MaxInt32 {
		return 0, nil, ErrCorrupt
	}
	return int(v), b[n:], nil
}

func appendExpr(b []byte, e *Expr) ([]byte, error) {
	b = append(b, byte(e.Op))
	var err error
	switch e.Op {
	case OpConst:
		if b, err = appendValue(b, e.Val); err != nil {
			return nil, err
		}
	case OpCol, OpParam:
		b = binary.AppendUvarint(b, uint64(e.Col))
	}
	b = binary.AppendUvarint(b, uint64(len(e.Args)))
	for i := range e.Args {
		if b, err = appendExpr(b, &e.Args[i]); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func decodeExpr(b []byte) (Expr, []byte, error) {
	if len(b) == 0 {
		return Expr{}, nil, ErrCorrupt
	}
	e := Expr{Op: Op(b[0])}
	b = b[1:]
	var err error
	switch e.Op {
	case OpConst:
		if e.Val, b, err = decodeValue(b); err != nil {
			return Expr{}, nil, err
		}
	case OpCol, OpParam:
		var n int
		if n, b, err = decodeLen(b); err != nil {
			return Expr{}, nil, err
		}
		e.Col = n
	}
	nargs, b, err := decodeLen(b)
	if err != nil || nargs > len(b) { // each arg takes >= 1 byte
		return Expr{}, nil, ErrCorrupt
	}
	if nargs > 0 {
		e.Args = make([]Expr, nargs)
		for i := 0; i < nargs; i++ {
			if e.Args[i], b, err = decodeExpr(b); err != nil {
				return Expr{}, nil, err
			}
		}
	}
	return e, b, nil
}

// Encode serializes the fragment for the RPC boundary.
func (f *Fragment) Encode() ([]byte, error) {
	b := []byte{wireVersion}
	b = binary.AppendUvarint(b, uint64(len(f.Kinds)))
	for _, k := range f.Kinds {
		b = append(b, byte(k))
	}
	var err error
	if f.Filter != nil {
		b = append(b, 1)
		if b, err = appendExpr(b, f.Filter); err != nil {
			return nil, err
		}
	} else {
		b = append(b, 0)
	}
	if f.Project != nil {
		b = append(b, 1)
		b = binary.AppendUvarint(b, uint64(len(f.Project)))
		for _, c := range f.Project {
			b = binary.AppendUvarint(b, uint64(c))
		}
	} else {
		b = append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(f.GroupBy)))
	for _, c := range f.GroupBy {
		b = binary.AppendUvarint(b, uint64(c))
	}
	b = binary.AppendUvarint(b, uint64(len(f.Aggs)))
	for _, a := range f.Aggs {
		b = append(b, byte(a.Kind))
		if a.Star {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		if a.Arg != nil {
			b = append(b, 1)
			if b, err = appendExpr(b, a.Arg); err != nil {
				return nil, err
			}
		} else {
			b = append(b, 0)
		}
	}
	if b, err = appendLookup(b, f.Lookup); err != nil {
		return nil, err
	}
	return b, nil
}

// Decode reconstructs a fragment from its wire bytes.
func Decode(b []byte) (*Fragment, error) {
	if len(b) == 0 || b[0] != wireVersion {
		return nil, fmt.Errorf("%w: bad version", ErrCorrupt)
	}
	b = b[1:]
	f := &Fragment{}
	nk, b, err := decodeLen(b)
	if err != nil || nk > len(b) {
		return nil, ErrCorrupt
	}
	f.Kinds = make([]table.Kind, nk)
	for i := 0; i < nk; i++ {
		f.Kinds[i] = table.Kind(b[i])
	}
	b = b[nk:]
	// Filter.
	if len(b) == 0 {
		return nil, ErrCorrupt
	}
	hasFilter := b[0] == 1
	b = b[1:]
	if hasFilter {
		var e Expr
		if e, b, err = decodeExpr(b); err != nil {
			return nil, err
		}
		f.Filter = &e
	}
	// Projection.
	if len(b) == 0 {
		return nil, ErrCorrupt
	}
	hasProj := b[0] == 1
	b = b[1:]
	if hasProj {
		var np int
		if np, b, err = decodeLen(b); err != nil {
			return nil, err
		}
		if np > len(b) { // each position takes >= 1 byte; bound before allocating
			return nil, ErrCorrupt
		}
		f.Project = make([]int, np)
		for i := 0; i < np; i++ {
			if f.Project[i], b, err = decodeLen(b); err != nil {
				return nil, err
			}
		}
	}
	// Group by.
	ng, b, err := decodeLen(b)
	if err != nil {
		return nil, err
	}
	if ng > len(b) { // each position takes >= 1 byte; bound before allocating
		return nil, ErrCorrupt
	}
	f.GroupBy = make([]int, ng)
	for i := 0; i < ng; i++ {
		if f.GroupBy[i], b, err = decodeLen(b); err != nil {
			return nil, err
		}
	}
	// Aggregates.
	na, b, err := decodeLen(b)
	if err != nil {
		return nil, err
	}
	for i := 0; i < na; i++ {
		if len(b) < 3 {
			return nil, ErrCorrupt
		}
		spec := AggSpec{Kind: AggKind(b[0]), Star: b[1] == 1}
		hasArg := b[2] == 1
		b = b[3:]
		if hasArg {
			var e Expr
			if e, b, err = decodeExpr(b); err != nil {
				return nil, err
			}
			spec.Arg = &e
		}
		f.Aggs = append(f.Aggs, spec)
	}
	// Lookup join. The section is optional at the wire level: fragments
	// encoded before it existed end here, and decode as no lookup.
	if len(b) > 0 {
		switch b[0] {
		case 0:
			b = b[1:]
		case 1:
			if f.Lookup, b, err = decodeLookup(b[1:]); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("%w: lookup flag %#x", ErrCorrupt, b[0])
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: trailing bytes", ErrCorrupt)
	}
	// Validate column positions and expression-node arity against Kinds so
	// a corrupt fragment fails here rather than with an index panic
	// mid-scan on the data node.
	ncols := len(f.Kinds)
	for _, c := range f.Project {
		if c < 0 || c >= ncols {
			return nil, fmt.Errorf("%w: projected column %d of %d", ErrCorrupt, c, ncols)
		}
	}
	for _, c := range f.GroupBy {
		if c < 0 || c >= ncols {
			return nil, fmt.Errorf("%w: group column %d of %d", ErrCorrupt, c, ncols)
		}
	}
	if f.Filter != nil {
		if err := validateExpr(f.Filter, ncols); err != nil {
			return nil, err
		}
	}
	for _, a := range f.Aggs {
		if a.Kind < AggCount || a.Kind > AggMax {
			return nil, fmt.Errorf("%w: aggregate kind %d", ErrCorrupt, a.Kind)
		}
		if !a.Star && a.Arg == nil {
			return nil, fmt.Errorf("%w: aggregate without argument", ErrCorrupt)
		}
		if a.Arg != nil {
			if err := validateExpr(a.Arg, ncols); err != nil {
				return nil, err
			}
		}
	}
	if f.Lookup != nil {
		if len(f.Aggs) > 0 {
			return nil, fmt.Errorf("%w: lookup join with aggregates", ErrCorrupt)
		}
		if err := validateLookup(f.Lookup, ncols); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// validateExpr checks an expression tree's operator arities and column
// bounds, so the evaluator can index Args and rows without re-checking.
func validateExpr(e *Expr, ncols int) error {
	switch e.Op {
	case OpConst, OpCol, OpParam:
		if len(e.Args) != 0 {
			return fmt.Errorf("%w: leaf %v with %d args", ErrCorrupt, e.Op, len(e.Args))
		}
		if e.Op == OpCol && (e.Col < 0 || e.Col >= ncols) {
			return fmt.Errorf("%w: column %d of %d", ErrCorrupt, e.Col, ncols)
		}
		if e.Op == OpParam && e.Col < 1 {
			return fmt.Errorf("%w: parameter index %d", ErrCorrupt, e.Col)
		}
		return nil
	case OpNot, OpNeg, OpIsNull, OpNotNull, OpAbs, OpLower, OpUpper, OpLength:
		if len(e.Args) != 1 {
			return fmt.Errorf("%w: %v with %d args, want 1", ErrCorrupt, e.Op, len(e.Args))
		}
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpAnd, OpOr,
		OpAdd, OpSub, OpMul, OpDiv, OpMod, OpLike:
		if len(e.Args) != 2 {
			return fmt.Errorf("%w: %v with %d args, want 2", ErrCorrupt, e.Op, len(e.Args))
		}
	case OpBetween, OpNotBetween:
		if len(e.Args) != 3 {
			return fmt.Errorf("%w: %v with %d args, want 3", ErrCorrupt, e.Op, len(e.Args))
		}
	case OpIn, OpNotIn, OpCoalesce:
		if len(e.Args) < 1 {
			return fmt.Errorf("%w: %v with no args", ErrCorrupt, e.Op)
		}
	default:
		return fmt.Errorf("%w: unknown op %d", ErrCorrupt, uint8(e.Op))
	}
	for i := range e.Args {
		if err := validateExpr(&e.Args[i], ncols); err != nil {
			return err
		}
	}
	return nil
}

// Bind substitutes statement parameter values for OpParam nodes, returning
// a new fragment ready to send to data nodes (a data node rejects fragments
// with unresolved parameters). The receiver is not modified, so one planned
// fragment template serves every execution of a prepared statement.
func (f *Fragment) Bind(params []any) (*Fragment, error) {
	out := *f
	var err error
	if out.Filter, err = BindExpr(f.Filter, params); err != nil {
		return nil, err
	}
	if out.Aggs, err = BindAggs(f.Aggs, params); err != nil {
		return nil, err
	}
	if f.Lookup != nil {
		keyExprs, changed, err := bindList(f.Lookup.KeyExprs, params)
		if err != nil {
			return nil, err
		}
		if changed {
			lk := *f.Lookup
			lk.KeyExprs = keyExprs
			out.Lookup = &lk
		}
	}
	return &out, nil
}

// BindExpr substitutes parameter values for the OpParam nodes of e. The
// receiver is not modified, and a tree without parameters comes back as
// is, so binding a parameter-free expression allocates nothing.
func BindExpr(e *Expr, params []any) (*Expr, error) {
	if e == nil {
		return nil, nil
	}
	b, changed, err := bindExpr(*e, params)
	if err != nil || !changed {
		return e, err
	}
	bound := b // escapes only on this path
	return &bound, nil
}

// BindExprs is BindExpr over a list; the list itself comes back as is when
// no element holds a parameter.
func BindExprs(es []Expr, params []any) ([]Expr, error) {
	out, _, err := bindList(es, params)
	return out, err
}

// BindAggs is BindExpr over aggregate arguments; the specs come back as is
// when no argument holds a parameter.
func BindAggs(specs []AggSpec, params []any) ([]AggSpec, error) {
	var out []AggSpec
	for i, a := range specs {
		arg, err := BindExpr(a.Arg, params)
		if err != nil {
			return nil, err
		}
		if arg != a.Arg && out == nil {
			out = append([]AggSpec(nil), specs...)
		}
		if out != nil {
			out[i].Arg = arg
		}
	}
	if out == nil {
		return specs, nil
	}
	return out, nil
}

func bindExpr(e Expr, params []any) (Expr, bool, error) {
	if e.Op == OpParam {
		if e.Col < 1 || e.Col > len(params) {
			return Expr{}, false, fmt.Errorf("fragment: parameter $%d with %d bound", e.Col, len(params))
		}
		v := params[e.Col-1]
		switch v.(type) {
		case nil, int64, float64, string, []byte, bool:
			return Expr{Op: OpConst, Val: v}, true, nil
		default:
			return Expr{}, false, fmt.Errorf("fragment: parameter $%d has unsupported type %T", e.Col, v)
		}
	}
	args, changed, err := bindList(e.Args, params)
	if err != nil || !changed {
		return e, false, err
	}
	e.Args = args
	return e, true, nil
}

// bindList binds each expression, copying the list only once an element
// actually changes.
func bindList(es []Expr, params []any) ([]Expr, bool, error) {
	var out []Expr
	for i := range es {
		b, changed, err := bindExpr(es[i], params)
		if err != nil {
			return nil, false, err
		}
		if changed && out == nil {
			out = append([]Expr(nil), es...)
		}
		if out != nil {
			out[i] = b
		}
	}
	if out == nil {
		return es, false, nil
	}
	return out, true, nil
}

// ---- Row codec helpers ----

// DecodeStoredRow decodes a stored row value by the fragment's column
// kinds — the data-node-side equivalent of Schema.DecodeRow.
func (f *Fragment) DecodeStoredRow(val []byte) ([]any, error) {
	return decodeRowByKinds(f.Kinds, val)
}

func decodeRowByKinds(kinds []table.Kind, val []byte) ([]any, error) {
	d := keys.NewDecoder(val)
	out := make([]any, len(kinds))
	for i, k := range kinds {
		v, err := decodeKeyValue(d, k)
		if err != nil {
			return nil, fmt.Errorf("fragment: column %d: %w", i, err)
		}
		out[i] = v
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("%w: trailing row bytes", ErrCorrupt)
	}
	return out, nil
}

func decodeKeyValue(d *keys.Decoder, k table.Kind) (any, error) {
	if d.IsNull() {
		return nil, nil
	}
	switch k {
	case table.Int64:
		return d.Int64()
	case table.Float64:
		return d.Float64()
	case table.String:
		return d.String()
	case table.Bytes:
		return d.RawBytes()
	case table.Bool:
		return d.Bool()
	default:
		return nil, fmt.Errorf("fragment: unknown kind %v", k)
	}
}

func encodeKeyValue(e *keys.Encoder, v any) error {
	switch x := v.(type) {
	case nil:
		e.Null()
	case int64:
		e.Int64(x)
	case float64:
		e.Float64(x)
	case string:
		e.String(x)
	case []byte:
		e.RawBytes(x)
	case bool:
		e.Bool(x)
	default:
		return fmt.Errorf("fragment: unsupported row value %T", v)
	}
	return nil
}

// EncodeProjected re-encodes the projected columns of a decoded row as the
// shipped row value.
func (f *Fragment) EncodeProjected(row []any) ([]byte, error) {
	e := keys.NewEncoder(16 * len(f.Project))
	for _, c := range f.Project {
		if err := encodeKeyValue(e, row[c]); err != nil {
			return nil, err
		}
	}
	return e.Bytes(), nil
}

// AppendProjected encodes the projected columns of batch row r onto enc —
// the batch form of EncodeProjected, producing identical bytes. Callers
// encode a whole page of survivors into one buffer and slice per-row
// values out of it instead of allocating an encoder per row.
func (f *Fragment) AppendProjected(enc *keys.Encoder, b *RowBatch, r int) error {
	for _, c := range f.Project {
		if err := encodeKeyValue(enc, b.cols[c][r]); err != nil {
			return err
		}
	}
	return nil
}

// AppendGroupKey encodes batch row r's memcomparable group key onto enc —
// the batch form of EncodeGroupKey, producing identical bytes.
func (f *Fragment) AppendGroupKey(enc *keys.Encoder, b *RowBatch, r int) error {
	for _, c := range f.GroupBy {
		if err := encodeKeyValue(enc, b.cols[c][r]); err != nil {
			return err
		}
	}
	return nil
}

// ProjectedKinds returns the column kinds of the projected (shipped)
// columns, in shipped order. Computing this once per scan lets the
// receiving side batch-decode projected rows without rebuilding it per row.
func (f *Fragment) ProjectedKinds() []table.Kind {
	kinds := make([]table.Kind, len(f.Project))
	for i, c := range f.Project {
		kinds[i] = f.Kinds[c]
	}
	return kinds
}

// DecodeProjectedAppend decodes a projected row value, appending the
// re-expanded full-width row (unshipped columns nil) to dst and returning
// the extended slice. narrowKinds must be ProjectedKinds(). Batch consumers
// decode a whole page into one backing slab this way.
func (f *Fragment) DecodeProjectedAppend(narrowKinds []table.Kind, val []byte, dst []any) ([]any, error) {
	var d keys.Decoder
	d.Reset(val)
	base := len(dst)
	for i := 0; i < len(f.Kinds); i++ {
		dst = append(dst, nil)
	}
	for i, k := range narrowKinds {
		v, err := decodeKeyValue(&d, k)
		if err != nil {
			return nil, fmt.Errorf("fragment: column %d: %w", i, err)
		}
		dst[base+f.Project[i]] = v
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("%w: trailing row bytes", ErrCorrupt)
	}
	return dst, nil
}

// DecodeProjected expands a projected row value back to full schema width,
// leaving unshipped columns nil. The planner guarantees no surviving
// expression references an unshipped column.
func (f *Fragment) DecodeProjected(val []byte) ([]any, error) {
	kinds := make([]table.Kind, len(f.Project))
	for i, c := range f.Project {
		kinds[i] = f.Kinds[c]
	}
	narrow, err := decodeRowByKinds(kinds, val)
	if err != nil {
		return nil, err
	}
	full := make([]any, len(f.Kinds))
	for i, c := range f.Project {
		full[c] = narrow[i]
	}
	return full, nil
}

// EncodeGroupKey builds the memcomparable group key for one row. Equal
// group values always encode to equal bytes, and the encoding orders
// exactly like the values, so per-shard group streams merge with the same
// cursor machinery as row scans.
func (f *Fragment) EncodeGroupKey(row []any) ([]byte, error) {
	e := keys.NewEncoder(16 * len(f.GroupBy))
	for _, c := range f.GroupBy {
		if err := encodeKeyValue(e, row[c]); err != nil {
			return nil, err
		}
	}
	return e.Bytes(), nil
}

// DecodeGroupKey recovers the group column values from a group key.
func (f *Fragment) DecodeGroupKey(key []byte) ([]any, error) {
	d := keys.NewDecoder(key)
	out := make([]any, len(f.GroupBy))
	for i, c := range f.GroupBy {
		v, err := decodeKeyValue(d, f.Kinds[c])
		if err != nil {
			return nil, fmt.Errorf("fragment: group key column %d: %w", i, err)
		}
		out[i] = v
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("%w: trailing group key bytes", ErrCorrupt)
	}
	return out, nil
}
