package gsql

import (
	"errors"
	"strings"
	"testing"
)

func TestParsePlaceholderStyles(t *testing.T) {
	cases := []struct {
		sql  string
		want int // expected parameter count
	}{
		{"SELECT * FROM t WHERE a = ?", 1},
		{"SELECT * FROM t WHERE a = ? AND b = ?", 2},
		{"SELECT * FROM t WHERE a = $1 AND b = $2", 2},
		{"SELECT * FROM t WHERE a = $2 AND b = $1", 2},
		{"SELECT * FROM t WHERE a = $1 AND b = $1", 1},
		{"SELECT * FROM t WHERE a IN (?, ?, ?)", 3},
		{"SELECT * FROM t WHERE a BETWEEN ? AND ?", 2},
		{"SELECT * FROM t LIMIT ?", 1},
		{"SELECT * FROM t LIMIT ? OFFSET ?", 2},
		{"SELECT * FROM t WHERE a = ? ORDER BY b LIMIT ? OFFSET ?", 3},
		{"INSERT INTO t VALUES (?, ?), (?, ?)", 4},
		{"INSERT INTO t (a, b) VALUES ($1, $2)", 2},
		{"UPDATE t SET a = ?, b = ? WHERE c = ?", 3},
		{"DELETE FROM t WHERE a = ? OR b IN (?, ?)", 3},
		{"SELECT COALESCE(a, ?) FROM t", 1},
		{"SELECT * FROM t WHERE a = 1", 0},
	}
	for _, tc := range cases {
		stmt, err := Parse(tc.sql)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.sql, err)
		}
		if got := CountParams(stmt); got != tc.want {
			t.Errorf("CountParams(%q) = %d, want %d", tc.sql, got, tc.want)
		}
	}
}

func TestParsePlaceholderErrors(t *testing.T) {
	bad := []string{
		"SELECT * FROM t WHERE a = ? AND b = $1", // mixed styles
		"SELECT * FROM t WHERE a = $1 AND b = ?", // mixed, other order
		"INSERT INTO t VALUES (?, $2)",           // mixed inside VALUES
		"SELECT * FROM t WHERE a = $0",           // positions are 1-based
		"SELECT * FROM t WHERE a = $",            // no number
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", sql)
		}
	}
	// Placeholder numbering resets between statements of a script, and a
	// style mix across statements is fine — the styles are per statement.
	stmts, err := ParseAll("SELECT * FROM t WHERE a = ?; SELECT * FROM t WHERE b = $1")
	if err != nil {
		t.Fatalf("ParseAll: %v", err)
	}
	for i, st := range stmts {
		if got := CountParams(st); got != 1 {
			t.Errorf("statement %d: CountParams = %d, want 1", i, got)
		}
	}
}

func TestPlaceholderString(t *testing.T) {
	stmt, err := Parse("SELECT * FROM t WHERE a = ? AND b IN (?, ?) LIMIT ?")
	if err != nil {
		t.Fatal(err)
	}
	got := stmt.String()
	for _, want := range []string{"$1", "$2", "$3", "LIMIT $4"} {
		if !strings.Contains(got, want) {
			t.Fatalf("String() = %q, missing %q", got, want)
		}
	}
}

// TestExecWithParams drives parameterized statements end to end: INSERT,
// point get, IN list, parameterized LIMIT, UPDATE and DELETE.
func TestExecWithParams(t *testing.T) {
	s := openSQL(t)
	exec(t, s, `CREATE TABLE items (w_id BIGINT, i_id BIGINT, name TEXT, price DOUBLE,
		PRIMARY KEY (w_id, i_id)) SHARD BY w_id`)

	ins, err := s.Prepare(bg, "INSERT INTO items VALUES (?, ?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 10; i++ {
		if _, err := ins.Exec(bg, int64(1), i, "item", float64(i)*2); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}

	// Point get through a prepared statement; int args normalize to int64.
	get, err := s.Prepare(bg, "SELECT price FROM items WHERE w_id = $1 AND i_id = $2")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		res, err := get.Exec(bg, 1, i)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].(float64) != float64(i)*2 {
			t.Fatalf("point get %d: %v", i, res.Rows)
		}
	}

	// IN list and parameterized LIMIT.
	res, err := s.Exec(bg, "SELECT i_id FROM items WHERE w_id = ? AND i_id IN (?, ?, ?) ORDER BY i_id LIMIT ?",
		1, 2, 4, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].(int64) != 2 || res.Rows[1][0].(int64) != 4 {
		t.Fatalf("IN+LIMIT: %v", res.Rows)
	}

	// UPDATE and DELETE with parameters.
	res, err = s.Exec(bg, "UPDATE items SET price = price + ? WHERE w_id = ? AND i_id = ?", 0.5, 1, 1)
	if err != nil || res.Affected != 1 {
		t.Fatalf("update: %v %v", res, err)
	}
	res, err = s.Exec(bg, "DELETE FROM items WHERE w_id = $1 AND i_id > $2", 1, 8)
	if err != nil || res.Affected != 2 {
		t.Fatalf("delete: %v %v", res, err)
	}

	// Arity errors, both directions.
	if _, err := s.Exec(bg, "SELECT * FROM items WHERE w_id = ?"); err == nil {
		t.Fatal("missing parameter must fail")
	}
	if _, err := s.Exec(bg, "SELECT * FROM items WHERE w_id = ?", 1, 2); err == nil {
		t.Fatal("extra parameter must fail")
	}
	if _, err := s.Exec(bg, "SELECT * FROM items WHERE w_id = ? LIMIT ?", 1, "ten"); err == nil {
		t.Fatal("non-integer LIMIT parameter must fail")
	}
	if _, err := s.Exec(bg, "SELECT * FROM items WHERE w_id = ?", struct{}{}); !errors.Is(err, ErrType) {
		t.Fatalf("unsupported parameter type: got %v", err)
	}
}

// TestQueryStreamsWithParams checks the streaming Query entry point,
// including DISTINCT/OFFSET handling on the streamed path.
func TestQueryStreamsWithParams(t *testing.T) {
	s := openSQL(t)
	exec(t, s, `CREATE TABLE nums (w_id BIGINT, n BIGINT, PRIMARY KEY (w_id, n)) SHARD BY w_id`)
	for i := int64(1); i <= 20; i++ {
		if _, err := s.Exec(bg, "INSERT INTO nums VALUES (?, ?)", int64(1), i); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := s.Query(bg, "SELECT n FROM nums WHERE w_id = ? AND n > ? ORDER BY n LIMIT ? OFFSET ?",
		1, 5, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var got []int64
	for rows.Next() {
		got = append(got, rows.Row()[0].(int64))
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got[0] != 8 || got[3] != 11 {
		t.Fatalf("streamed rows: %v", got)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}

	// Aggregates stream through the same API.
	rows, err = s.Query(bg, "SELECT COUNT(*) FROM nums WHERE n <= ?", 10)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() || rows.Row()[0].(int64) != 10 {
		t.Fatalf("aggregate via Query: %v (err %v)", rows.Row(), rows.Err())
	}

	// Query rejects non-SELECT statements with the sentinel.
	if _, err := s.Query(bg, "SHOW TABLES"); !errors.Is(err, ErrNotSelect) {
		t.Fatalf("SHOW via Query: got %v", err)
	}
}
