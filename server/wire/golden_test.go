package wire

import (
	"encoding/hex"
	"math"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"globaldb"
)

// goldenFrames are the frames TestWireGoldenBytes pins: the two that carry
// tagged SQL values (query arguments and result rows) with every kind and
// its edge cases, a prepared-statement execution, and a Done with every
// scan counter and a join strategy set.
func goldenFrames() []struct {
	name string
	m    Message
} {
	negZero := math.Copysign(0, -1)
	return []struct {
		name string
		m    Message
	}{
		{"query", &Query{SQL: "SELECT ?", Args: []any{nil, int64(7), 2.5, "s", []byte{0xab}, true}}},
		{"row batch", &RowBatch{Rows: [][]any{
			{nil, int64(-9000000000), negZero, math.NaN(), math.Inf(1)},
			{"", "héllo", []byte{0x00, 0x7f}, true, false},
		}}},
		{"execute", &Execute{Name: "s1", Args: []any{int64(42), "k"}}},
		{"done", &Done{Affected: 3, Msg: "SELECT 2", InTxn: true, Canceled: true,
			Stats: globaldb.ScanStats{StorageRows: 2000, DNFilteredRows: 1800, WANRows: 200, LookupRows: 40,
				PagesFetched: 8, PrefetchHits: 7, WANWait: 1500 * time.Microsecond},
			JoinStrategy: "lookup-pushdown"}},
	}
}

// TestWireGoldenBytes pins every byte of the golden frames. The value
// codec is shared with the plan-fragment codec; a refactor of either must
// leave these bytes unchanged.
func TestWireGoldenBytes(t *testing.T) {
	want := map[string]string{
		"query":     "00000026020853454c454354203f06000100000000000000070240040000000000000301730401ab0501",
		"row batch": "0000003b0b02050001fffffffde78ee600028000000000000000027ff8000000000001027ff0000000000000050300030668c3a96c6c6f0402007f05010500",
		"execute":   "00000011040273310201000000000000002a03016b",
		"done":      "0000002a0c060853454c45435420320101a01f901c900350100ec08db7010f6c6f6f6b75702d70757368646f776e",
	}
	for _, g := range goldenFrames() {
		b, err := AppendFrame(nil, g.m)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if got := hex.EncodeToString(b); got != want[g.name] {
			t.Errorf("%s frame:\n got  %s\n want %s", g.name, got, want[g.name])
		}
	}
}

// TestDoneCountersCoverScanSnapshot: the Done frame's counter table names
// every field of stats.ScanSnapshot, in field order, so a counter added to
// the record cannot be left off the wire.
func TestDoneCountersCoverScanSnapshot(t *testing.T) {
	var s globaldb.ScanStats
	v := reflect.ValueOf(&s).Elem()
	if len(doneCounters) != v.NumField() {
		t.Fatalf("Done carries %d scan counters, ScanSnapshot has %d fields", len(doneCounters), v.NumField())
	}
	for i, field := range doneCounters {
		if got, want := unsafe.Pointer(field(&s)), v.Field(i).Addr().UnsafePointer(); got != want {
			t.Errorf("Done counter %d is not ScanSnapshot.%s", i, v.Type().Field(i).Name)
		}
	}
}
