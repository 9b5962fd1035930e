// Package table implements GlobalDB's relational layer: schemas, a row
// codec, memcomparable primary and secondary index keys, and a catalog with
// the DDL timestamps the read-on-replica protocol gates on (Sec. IV-A).
//
// Rows live in data-node MVCC stores under keys of the form
// (tableID, pk...) and index entries under (indexID, cols..., pk...). No SQL
// parser is involved: workloads drive the layer through typed accessors,
// which is sufficient to reproduce the paper's TPC-C and Sysbench behaviour.
package table

import (
	"errors"
	"fmt"

	"globaldb/internal/keys"
)

// Kind is a column type.
type Kind uint8

// Column kinds.
const (
	// Int64 is a signed 64-bit integer column.
	Int64 Kind = iota + 1
	// Float64 is a double-precision column.
	Float64
	// String is a variable-length text column.
	String
	// Bytes is a variable-length binary column.
	Bytes
	// Bool is a boolean column.
	Bool
)

func (k Kind) String() string {
	switch k {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	case String:
		return "string"
	case Bytes:
		return "bytes"
	case Bool:
		return "bool"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Column describes one column.
type Column struct {
	Name string
	Kind Kind
}

// Index describes a secondary index over column positions, with the primary
// key appended for uniqueness.
type Index struct {
	// ID is unique across the cluster; index keys are prefixed with it.
	ID uint64
	// Name is the index's human name.
	Name string
	// Cols are positions into Schema.Columns.
	Cols []int
}

// Schema describes a table.
type Schema struct {
	// ID is unique across the cluster; row keys are prefixed with it.
	ID uint64
	// Name is the table's human name.
	Name string
	// Columns lists the columns in storage order.
	Columns []Column
	// PK holds positions of the primary key columns, in key order.
	PK []int
	// Indexes lists secondary indexes.
	Indexes []Index
	// ShardBy is the position of the distribution column whose hash picks
	// the shard. Defaults to the first PK column.
	ShardBy int
	// SyncReplicated forces transactions writing this table to wait for
	// replica acknowledgement at commit, even under asynchronous cluster
	// replication — the paper's future-work "synchronous replicated tables
	// that co-exist with asynchronous tables", trading update latency for
	// maximal replica freshness on selected relations.
	SyncReplicated bool
}

// Row is a tuple of column values aligned with Schema.Columns. Values are
// int64, float64, string, []byte, bool, or nil.
type Row []any

// Errors.
var (
	// ErrSchemaMismatch means a row does not match its schema.
	ErrSchemaMismatch = errors.New("table: row does not match schema")
	// ErrNotFound means the catalog has no such table.
	ErrNotFound = errors.New("table: no such table")
	// ErrExists means a table with that name already exists.
	ErrExists = errors.New("table: table already exists")
)

// Validate checks structural invariants of the schema.
func (s *Schema) Validate() error {
	if s.Name == "" || s.ID == 0 {
		return fmt.Errorf("table %q: missing name or ID", s.Name)
	}
	if len(s.Columns) == 0 {
		return fmt.Errorf("table %q: no columns", s.Name)
	}
	if len(s.PK) == 0 {
		return fmt.Errorf("table %q: no primary key", s.Name)
	}
	for _, p := range s.PK {
		if p < 0 || p >= len(s.Columns) {
			return fmt.Errorf("table %q: PK position %d out of range", s.Name, p)
		}
	}
	if s.ShardBy < 0 || s.ShardBy >= len(s.Columns) {
		return fmt.Errorf("table %q: ShardBy %d out of range", s.Name, s.ShardBy)
	}
	for _, ix := range s.Indexes {
		if ix.ID == 0 {
			return fmt.Errorf("table %q index %q: missing ID", s.Name, ix.Name)
		}
		for _, c := range ix.Cols {
			if c < 0 || c >= len(s.Columns) {
				return fmt.Errorf("table %q index %q: column %d out of range", s.Name, ix.Name, c)
			}
		}
	}
	return nil
}

// checkRow verifies arity and value kinds.
func (s *Schema) checkRow(r Row) error {
	if len(r) != len(s.Columns) {
		return fmt.Errorf("%w: %d values for %d columns of %s", ErrSchemaMismatch, len(r), len(s.Columns), s.Name)
	}
	for i, v := range r {
		if v == nil {
			continue
		}
		ok := false
		switch s.Columns[i].Kind {
		case Int64:
			_, ok = v.(int64)
		case Float64:
			_, ok = v.(float64)
		case String:
			_, ok = v.(string)
		case Bytes:
			_, ok = v.([]byte)
		case Bool:
			_, ok = v.(bool)
		}
		if !ok {
			return fmt.Errorf("%w: column %s wants %v, got %T", ErrSchemaMismatch, s.Columns[i].Name, s.Columns[i].Kind, v)
		}
	}
	return nil
}

func encodeValue(e *keys.Encoder, v any) error {
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
		return fmt.Errorf("%w: unsupported value type %T", ErrSchemaMismatch, v)
	}
	return nil
}

// PrimaryKey encodes the row's primary key: (tableID, pk columns...).
func (s *Schema) PrimaryKey(r Row) ([]byte, error) {
	if err := s.checkRow(r); err != nil {
		return nil, err
	}
	return s.PrimaryKeyFromValues(pick(r, s.PK))
}

// PrimaryKeyFromValues encodes a primary key from the PK column values
// alone, for lookups without a full row.
func (s *Schema) PrimaryKeyFromValues(pkVals []any) ([]byte, error) {
	if len(pkVals) != len(s.PK) {
		return nil, fmt.Errorf("%w: %d PK values, want %d", ErrSchemaMismatch, len(pkVals), len(s.PK))
	}
	e := keys.NewEncoder(16 + 16*len(pkVals))
	e.Uint64(s.ID)
	for _, v := range pkVals {
		if err := encodeValue(e, v); err != nil {
			return nil, err
		}
	}
	return e.Bytes(), nil
}

// PrimaryKeyPrefix encodes a scan prefix from the leading PK column values.
func (s *Schema) PrimaryKeyPrefix(vals []any) ([]byte, error) {
	if len(vals) > len(s.PK) {
		return nil, fmt.Errorf("%w: %d values for %d PK columns", ErrSchemaMismatch, len(vals), len(s.PK))
	}
	e := keys.NewEncoder(16 + 16*len(vals))
	e.Uint64(s.ID)
	for _, v := range vals {
		if err := encodeValue(e, v); err != nil {
			return nil, err
		}
	}
	return e.Bytes(), nil
}

// TablePrefix returns the key prefix that covers every row of the table.
func (s *Schema) TablePrefix() []byte {
	return keys.NewEncoder(16).Uint64(s.ID).Bytes()
}

// IndexKey encodes a secondary index entry: (indexID, cols..., pk...).
func (s *Schema) IndexKey(ix Index, r Row) ([]byte, error) {
	if err := s.checkRow(r); err != nil {
		return nil, err
	}
	e := keys.NewEncoder(16 + 16*(len(ix.Cols)+len(s.PK)))
	e.Uint64(ix.ID)
	for _, v := range pick(r, ix.Cols) {
		if err := encodeValue(e, v); err != nil {
			return nil, err
		}
	}
	for _, v := range pick(r, s.PK) {
		if err := encodeValue(e, v); err != nil {
			return nil, err
		}
	}
	return e.Bytes(), nil
}

// IndexPrefix encodes the scan prefix for an index given a prefix of its
// columns' values.
func (s *Schema) IndexPrefix(ix Index, vals []any) ([]byte, error) {
	if len(vals) > len(ix.Cols) {
		return nil, fmt.Errorf("%w: %d values for %d index columns", ErrSchemaMismatch, len(vals), len(ix.Cols))
	}
	e := keys.NewEncoder(16 + 16*len(vals))
	e.Uint64(ix.ID)
	for _, v := range vals {
		if err := encodeValue(e, v); err != nil {
			return nil, err
		}
	}
	return e.Bytes(), nil
}

func pick(r Row, idx []int) []any {
	out := make([]any, len(idx))
	for i, p := range idx {
		out[i] = r[p]
	}
	return out
}

// EncodeRow serializes a row as the stored value.
func (s *Schema) EncodeRow(r Row) ([]byte, error) {
	if err := s.checkRow(r); err != nil {
		return nil, err
	}
	e := keys.NewEncoder(32 * len(r))
	for _, v := range r {
		if err := encodeValue(e, v); err != nil {
			return nil, err
		}
	}
	return e.Bytes(), nil
}

// DecodeRow parses a stored value back into a row.
func (s *Schema) DecodeRow(b []byte) (Row, error) {
	out, err := s.DecodeRowAppend(b, make([]any, 0, len(s.Columns)))
	return Row(out), err
}

// DecodeRowAppend parses a stored value, appending the column values to dst
// and returning the extended slice. Batch consumers decode many rows into
// one backing slab this way, one slab allocation per page instead of one
// Row allocation per row.
func (s *Schema) DecodeRowAppend(b []byte, dst []any) ([]any, error) {
	var d keys.Decoder
	d.Reset(b)
	for i := range s.Columns {
		c := &s.Columns[i]
		if d.IsNull() {
			dst = append(dst, nil)
			continue
		}
		var v any
		var err error
		switch c.Kind {
		case Int64:
			v, err = d.Int64()
		case Float64:
			v, err = d.Float64()
		case String:
			v, err = d.String()
		case Bytes:
			v, err = d.RawBytes()
		case Bool:
			v, err = d.Bool()
		}
		if err != nil {
			return nil, fmt.Errorf("table %s column %s: %w", s.Name, c.Name, err)
		}
		dst = append(dst, v)
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("table %s: %w: trailing bytes", s.Name, keys.ErrCorrupt)
	}
	return dst, nil
}

// ColIndex returns the position of the named column, or -1.
func (s *Schema) ColIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}
