package driver

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"globaldb"
)

// TestPointSelectSettlesBeforeRowsClose: the in-process driver hands a point
// SELECT's row to the application at Rows.Next, before Rows.Close. The CN
// that served it runs its clock at +bound and another CN at -bound, while a
// writer keeps committing new balances to the row. A point SELECT that
// starts on the other CN once the row has been scanned, before the first
// Rows closes, must return that balance or a later one.
func TestPointSelectSettlesBeforeRowsClose(t *testing.T) {
	cfg := globaldb.OneRegion(0)
	cfg.TimeScale = 0.02
	cfg.Shards = 2
	db, err := globaldb.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	fast, slow := db.Regions()[0], db.Regions()[1]
	bound := cfg.Clock.SyncRTT
	db.Cluster().CN(fast).Oracle().Clock().SetFaultSkew(bound)
	db.Cluster().CN(slow).Oracle().Clock().SetFaultSkew(-bound)
	onFast, onSlow := openDB(t, NewConnector(db, Config{Region: fast})), openDB(t, NewConnector(db, Config{Region: slow}))
	for _, q := range []string{
		"CREATE TABLE acct (id BIGINT, bal BIGINT, PRIMARY KEY (id)) SHARD BY id",
		"INSERT INTO acct VALUES (1, 100)",
	} {
		if _, err := onFast.Exec(q); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for bal := int64(101); !stop.Load(); bal++ {
			if _, err := onFast.Exec("UPDATE acct SET bal = ? WHERE id = 1", bal); err != nil {
				t.Errorf("update: %v", err)
				return
			}
		}
	}()
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	streamed, err := onFast.Prepare("SELECT bal FROM acct WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	after, err := onSlow.Prepare("SELECT bal FROM acct WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	reads := 0
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); reads++ {
		rows, err := streamed.Query(int64(1))
		if err != nil {
			t.Fatal(err)
		}
		var got, later int64
		if !rows.Next() {
			t.Fatalf("streamed point select returned no row: %v", rows.Err())
		}
		if err := rows.Scan(&got); err != nil {
			t.Fatal(err)
		}
		if err := after.QueryRow(int64(1)).Scan(&later); err != nil {
			t.Fatal(err)
		}
		if later < got {
			t.Fatalf("point select on the slow CN returned balance %d after Rows.Next had returned %d", later, got)
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if reads == 0 {
		t.Fatal("no reads")
	}
}
