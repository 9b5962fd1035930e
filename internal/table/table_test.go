package table

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"testing/quick"
)

func customerSchema() *Schema {
	return &Schema{
		ID:   7,
		Name: "customer",
		Columns: []Column{
			{Name: "c_w_id", Kind: Int64},
			{Name: "c_d_id", Kind: Int64},
			{Name: "c_id", Kind: Int64},
			{Name: "c_name", Kind: String},
			{Name: "c_balance", Kind: Float64},
			{Name: "c_data", Kind: Bytes},
			{Name: "c_good", Kind: Bool},
		},
		PK:      []int{0, 1, 2},
		Indexes: []Index{{ID: 8, Name: "customer_name", Cols: []int{0, 1, 3}}},
	}
}

func sampleRow() Row {
	return Row{int64(1), int64(2), int64(3), "Alice", 99.5, []byte{0xDE, 0xAD}, true}
}

func TestSchemaValidate(t *testing.T) {
	if err := customerSchema().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := customerSchema()
	bad.PK = []int{99}
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range PK must fail validation")
	}
	bad = customerSchema()
	bad.PK = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("missing PK must fail validation")
	}
	bad = customerSchema()
	bad.Indexes[0].Cols = []int{42}
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range index column must fail validation")
	}
}

func TestRowRoundTrip(t *testing.T) {
	s := customerSchema()
	r := sampleRow()
	b, err := s.EncodeRow(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.DecodeRow(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("round trip:\n got %#v\nwant %#v", got, r)
	}
}

func TestRowWithNulls(t *testing.T) {
	s := customerSchema()
	r := Row{int64(1), int64(2), int64(3), nil, nil, nil, nil}
	b, err := s.EncodeRow(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.DecodeRow(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("nulls: got %#v", got)
	}
}

func TestRowKindMismatch(t *testing.T) {
	s := customerSchema()
	r := sampleRow()
	r[0] = "not an int"
	if _, err := s.EncodeRow(r); !errors.Is(err, ErrSchemaMismatch) {
		t.Fatalf("kind mismatch: %v", err)
	}
	if _, err := s.EncodeRow(Row{int64(1)}); !errors.Is(err, ErrSchemaMismatch) {
		t.Fatal("arity mismatch must fail")
	}
}

func TestPrimaryKeyOrdering(t *testing.T) {
	s := customerSchema()
	r1, r2 := sampleRow(), sampleRow()
	r2[2] = int64(4) // larger c_id
	k1, err := s.PrimaryKey(r1)
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := s.PrimaryKey(r2)
	if bytes.Compare(k1, k2) >= 0 {
		t.Fatal("pk ordering must follow column values")
	}
	// Key built from values matches key built from row.
	k1b, err := s.PrimaryKeyFromValues([]any{int64(1), int64(2), int64(3)})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(k1, k1b) {
		t.Fatal("PrimaryKeyFromValues must agree with PrimaryKey")
	}
}

func TestPrimaryKeyHasTablePrefix(t *testing.T) {
	s := customerSchema()
	k, _ := s.PrimaryKey(sampleRow())
	if !bytes.HasPrefix(k, s.TablePrefix()) {
		t.Fatal("pk must start with the table prefix")
	}
	other := customerSchema()
	other.ID = 99
	k2, _ := other.PrimaryKey(sampleRow())
	if bytes.HasPrefix(k2, s.TablePrefix()) {
		t.Fatal("different tables must have disjoint key spaces")
	}
}

func TestIndexKeyAndPrefix(t *testing.T) {
	s := customerSchema()
	ix := s.Indexes[0]
	r := sampleRow()
	k, err := s.IndexKey(ix, r)
	if err != nil {
		t.Fatal(err)
	}
	// Prefix over (c_w_id, c_d_id, c_name) must cover the full entry.
	p, err := s.IndexPrefix(ix, []any{int64(1), int64(2), "Alice"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(k, p) {
		t.Fatal("index entry must start with its column prefix")
	}
	// A shorter prefix also covers it.
	p2, _ := s.IndexPrefix(ix, []any{int64(1)})
	if !bytes.HasPrefix(k, p2) {
		t.Fatal("partial prefix must cover the entry")
	}
	if _, err := s.IndexPrefix(ix, []any{int64(1), int64(2), "Alice", "extra"}); err == nil {
		t.Fatal("too many prefix values must fail")
	}
}

func TestRowRoundTripProperty(t *testing.T) {
	s := &Schema{
		ID: 3, Name: "t",
		Columns: []Column{{Name: "a", Kind: Int64}, {Name: "b", Kind: String}, {Name: "c", Kind: Float64}},
		PK:      []int{0},
	}
	f := func(a int64, b string, c float64) bool {
		if c != c { // NaN: float equality would fail below
			return true
		}
		r := Row{a, b, c}
		enc, err := s.EncodeRow(r)
		if err != nil {
			return false
		}
		got, err := s.DecodeRow(enc)
		return err == nil && reflect.DeepEqual(got, r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRowCorrupt(t *testing.T) {
	s := customerSchema()
	b, _ := s.EncodeRow(sampleRow())
	if _, err := s.DecodeRow(b[:len(b)-3]); err == nil {
		t.Fatal("truncated row must fail")
	}
	if _, err := s.DecodeRow(append(bytes.Clone(b), 0x01)); err == nil {
		t.Fatal("trailing bytes must fail")
	}
}

func TestColIndex(t *testing.T) {
	s := customerSchema()
	if s.ColIndex("c_balance") != 4 {
		t.Fatal("ColIndex wrong")
	}
	if s.ColIndex("nope") != -1 {
		t.Fatal("missing column must be -1")
	}
}

func TestCatalogCreateGetDrop(t *testing.T) {
	c := NewCatalog()
	s := customerSchema()
	if err := c.Create(s, 100); err != nil {
		t.Fatal(err)
	}
	if err := c.Create(s, 100); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	got, err := c.Get("customer")
	if err != nil || got.ID != s.ID {
		t.Fatalf("Get: %v %v", got, err)
	}
	if byID, err := c.GetByID(7); err != nil || byID.Name != "customer" {
		t.Fatalf("GetByID: %v %v", byID, err)
	}
	if len(c.Tables()) != 1 {
		t.Fatal("Tables")
	}
	if err := c.Drop("customer", 200); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("customer"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after drop: %v", err)
	}
	if err := c.Drop("customer", 300); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double drop: %v", err)
	}
}

func TestCatalogDDLGate(t *testing.T) {
	c := NewCatalog()
	s1 := customerSchema()
	s2 := &Schema{ID: 20, Name: "orders", Columns: []Column{{Name: "id", Kind: Int64}}, PK: []int{0}}
	c.Create(s1, 100)
	c.Create(s2, 500)

	// RCP below every DDL: nothing allowed.
	if c.RORAllowed(50, s1.ID) {
		t.Fatal("RCP 50 must not allow reads on a table created at 100")
	}
	// Condition 2: RCP past the involved table's DDL, even though a newer
	// DDL exists elsewhere.
	if !c.RORAllowed(150, s1.ID) {
		t.Fatal("RCP 150 must allow reads on customer (DDL 100)")
	}
	if c.RORAllowed(150, s1.ID, s2.ID) {
		t.Fatal("RCP 150 must not allow reads involving orders (DDL 500)")
	}
	// Condition 1: RCP past the global max allows everything.
	if !c.RORAllowed(500, s1.ID, s2.ID) {
		t.Fatal("RCP at max DDL must allow all reads")
	}
	if c.MaxDDLTS() != 500 {
		t.Fatalf("MaxDDLTS = %v", c.MaxDDLTS())
	}
	// CREATE INDEX bumps the table's DDL timestamp.
	c.NoteDDL(s1.ID, 900)
	if c.RORAllowed(600, s1.ID) {
		t.Fatal("reads must gate on the new index DDL")
	}
	if c.DDLTSOf(s1.ID) != 900 {
		t.Fatalf("DDLTSOf = %v", c.DDLTSOf(s1.ID))
	}
}

func TestCatalogNextID(t *testing.T) {
	c := NewCatalog()
	id1, id2 := c.NextID(), c.NextID()
	if id1 == id2 {
		t.Fatal("IDs must be unique")
	}
	s := customerSchema() // ID 7
	c.Create(s, 1)
	if id := c.NextID(); id <= 7 {
		t.Fatalf("NextID %d must skip past created IDs", id)
	}
}

func TestSchemaMarshalRoundTrip(t *testing.T) {
	s := customerSchema()
	b, err := MarshalSchema(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalSchema(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("schema round trip:\n got %#v\nwant %#v", got, s)
	}
	if _, err := UnmarshalSchema([]byte("{broken")); err == nil {
		t.Fatal("bad JSON must fail")
	}
}

// TestTaggedRoundTrip pins the tagged codec: every value kind decodes back
// to itself with nothing left over (an empty BYTEA as a nil []byte), and a
// bad tag, a hostile length or a truncated value is ErrMalformed.
func TestTaggedRoundTrip(t *testing.T) {
	vals := []any{nil, int64(-1 << 40), 2.5, "", "héllo", []byte{}, []byte{0x00, 0xff}, true, false}
	for _, v := range vals {
		b, err := AppendTagged(nil, v)
		if err != nil {
			t.Fatalf("%#v: %v", v, err)
		}
		got, rest, err := DecodeTagged(b)
		if want, ok := v.([]byte); ok && len(want) == 0 {
			v = []byte(nil)
		}
		if err != nil || len(rest) != 0 || !reflect.DeepEqual(got, v) {
			t.Fatalf("%#v decoded as %#v (rest %x, err %v)", v, got, rest, err)
		}
	}
	if _, err := AppendTagged(nil, int32(1)); !errors.Is(err, ErrSchemaMismatch) {
		t.Fatalf("int32 encoded: %v", err)
	}
	for _, b := range [][]byte{
		{}, {0xEE}, {1, 0, 0}, {2}, {5},
		{3, 0xff, 0xff, 0xff, 0xff, 0x0f}, {4, 2, 'x'},
	} {
		if _, _, err := DecodeTagged(b); !errors.Is(err, ErrMalformed) {
			t.Errorf("%x: error %v, want ErrMalformed", b, err)
		}
	}
}
