package mvcc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"globaldb/internal/ts"
)

// TestResolveRacesReadersAndDuplicates races, round after round on one key,
// two resolvers of a pending transaction (Commit and Commit, Abort and Abort,
// or Commit and Abort) against a Get and a ScanPage at the commit timestamp.
// Exactly one resolver wins and the other gets ErrTxnNotFound, and every
// reader returns the winner's outcome: the new value after a commit, the
// previous one after an abort.
func TestResolveRacesReadersAndDuplicates(t *testing.T) {
	s := NewStore()
	key := []byte("k")
	ctx, cancel := context.WithTimeout(bg, 30*time.Second)
	defer cancel()
	last := "" // the newest committed value
	for i := 1; i <= 300; i++ {
		txn, commitTS := TxnID(i), ts.Timestamp(10*i)
		val := fmt.Sprintf("v%d", i)
		mustPut(t, s, txn, "k", val, commitTS-1)
		s.MarkPending(txn)

		commits := [2]bool{i%3 != 0, i%3 == 1} // Commit twice, Abort twice, or one of each
		var wg sync.WaitGroup
		var errs [2]error
		var seen [2]string
		for r := range 2 {
			wg.Add(2)
			go func() {
				defer wg.Done()
				if commits[r] {
					errs[r] = s.Commit(txn, commitTS)
				} else {
					errs[r] = s.Abort(txn)
				}
			}()
			go func() {
				defer wg.Done()
				if r == 0 {
					v, _, err := s.Get(ctx, key, commitTS, 0)
					if err != nil {
						t.Errorf("round %d: Get: %v", i, err)
					}
					seen[r] = string(v)
					return
				}
				kvs, _, _, err := s.ScanPage(ctx, key, nil, commitTS, 0, 0)
				if err != nil {
					t.Errorf("round %d: ScanPage: %v", i, err)
				}
				for _, kv := range kvs {
					seen[r] = string(kv.Value)
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}

		winner := 0
		if errs[0] != nil {
			winner = 1
		}
		if errs[winner] != nil || !errors.Is(errs[1-winner], ErrTxnNotFound) {
			t.Fatalf("round %d: resolver errors %v, want one nil and one ErrTxnNotFound", i, errs)
		}
		if commits[winner] {
			last = val
		}
		for r, v := range seen {
			if v != last {
				t.Fatalf("round %d: reader %d saw %q, want %q (commit won: %v)", i, r, v, last, commits[winner])
			}
		}
		if _, ok := s.TxnStateOf(txn); ok {
			t.Fatalf("round %d: transaction still in the table", i)
		}
	}
}
