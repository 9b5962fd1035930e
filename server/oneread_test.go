package server

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"globaldb"
	"globaldb/gsql"
	"globaldb/server/wire"
)

// TestServerPointSelectSettlesBeforeItsBatch: with one-row batches the
// server flushes a point SELECT's row before it closes the Rows. The CN that
// served it runs its clock at +bound and another CN at -bound, while a
// writer keeps committing new balances to the row. Once the client holds the
// row, a point SELECT that starts on the other CN must return that balance
// or a later one: the one-read context waited out the version it read
// before the row left the server.
func TestServerPointSelectSettlesBeforeItsBatch(t *testing.T) {
	db := newTestCluster(t)
	fast, slow := db.Regions()[0], db.Regions()[1]
	bound := globaldb.OneRegion(0).Clock.SyncRTT
	db.Cluster().CN(fast).Oracle().Clock().SetFaultSkew(bound)
	db.Cluster().CN(slow).Oracle().Clock().SetFaultSkew(-bound)
	writer, err := gsql.Connect(db, fast)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"CREATE TABLE acct (id BIGINT, bal BIGINT, PRIMARY KEY (id)) SHARD BY id",
		"INSERT INTO acct VALUES (1, 100)",
	} {
		if _, err := writer.Exec(bg, q); err != nil {
			t.Fatal(err)
		}
	}
	reader, err := gsql.Connect(db, slow)
	if err != nil {
		t.Fatal(err)
	}
	srv := startTestServer(t, db, Options{Region: fast, BatchRows: 1})
	c := dialTest(t, srv)
	c.hello(fast, "")

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for bal := int64(101); !stop.Load(); bal++ {
			if _, err := writer.Exec(bg, "UPDATE acct SET bal = ? WHERE id = 1", bal); err != nil {
				t.Errorf("update: %v", err)
				return
			}
		}
	}()
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	reads := 0
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); reads++ {
		c.send(&wire.Query{SQL: "SELECT bal FROM acct WHERE id = 1"})
		if m, ok := c.recv().(*wire.RowHeader); !ok {
			t.Fatalf("point select answered %#v, want a RowHeader", m)
		}
		batch, ok := c.recv().(*wire.RowBatch)
		if !ok || len(batch.Rows) != 1 {
			t.Fatalf("point select sent %#v before Done, want a one-row batch", batch)
		}
		got := batch.Rows[0][0].(int64)
		res, err := reader.Exec(bg, "SELECT bal FROM acct WHERE id = 1")
		if err != nil {
			t.Fatal(err)
		}
		if later := res.Rows[0][0].(int64); later < got {
			t.Fatalf("point select on the slow CN returned balance %d after the server had sent %d", later, got)
		}
		c.mustDone(c.recv())
	}
	if reads == 0 {
		t.Fatal("no reads")
	}
}
