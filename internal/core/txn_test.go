package core

import (
	"errors"
	"sync"
	"testing"

	"hcl/internal/cluster"
)

// txnWorld bundles the world and runtime handed back by txnTestMaps.
type txnWorld struct {
	w  *cluster.World
	rt *Runtime
}

// txnTestMaps builds two independent maps over a 4-node sim world so the
// tests exercise cross-container participants.
func txnTestMaps(t *testing.T, opts ...Option) (*txnWorld, *UnorderedMap[int, int], *UnorderedMap[int, int]) {
	t.Helper()
	w, rt, _ := newTestWorld(t, 4, 1)
	base := append([]Option{WithHybrid(false)}, opts...)
	a, err := NewUnorderedMap[int, int](rt, "txn_acct_a", base...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewUnorderedMap[int, int](rt, "txn_acct_b", base...)
	if err != nil {
		t.Fatal(err)
	}
	return &txnWorld{w, rt}, a, b
}

func TestTxnCommitCrossContainer(t *testing.T) {
	c, a, b := txnTestMaps(t)
	r := c.w.Rank(0)

	mustInsert := func(m *UnorderedMap[int, int], k, v int) {
		t.Helper()
		if _, err := m.Insert(r, k, v); err != nil {
			t.Fatal(err)
		}
	}
	mustInsert(a, 1, 100)
	mustInsert(b, 2, 50)

	// Transfer 30 from a[1] to b[2], plus a fresh insert and a delete in
	// the same transaction.
	mustInsert(a, 9, 1) // doomed key
	err := Txn(r, func(tx *Tx) error {
		av, ok, err := TxnGet(tx, a, 1)
		if err != nil || !ok {
			t.Fatalf("TxnGet a[1]: ok=%v err=%v", ok, err)
		}
		bv, ok, err := TxnGet(tx, b, 2)
		if err != nil || !ok {
			t.Fatalf("TxnGet b[2]: ok=%v err=%v", ok, err)
		}
		if err := TxnPut(tx, a, 1, av-30); err != nil {
			return err
		}
		if err := TxnPut(tx, b, 2, bv+30); err != nil {
			return err
		}
		if err := TxnPut(tx, b, 7, 777); err != nil {
			return err
		}
		if err := TxnDelete(tx, a, 9); err != nil {
			return err
		}
		// Read-your-writes: the buffered put must be visible in-body.
		if v, ok, _ := TxnGet(tx, b, 7); !ok || v != 777 {
			t.Fatalf("read-your-writes: got (%v, %v)", v, ok)
		}
		if _, ok, _ := TxnGet(tx, a, 9); ok {
			t.Fatal("read-your-writes: deleted key still visible")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Txn: %v", err)
	}

	check := func(m *UnorderedMap[int, int], k, want int, wantOK bool) {
		t.Helper()
		v, ok, err := m.Find(r, k)
		if err != nil || ok != wantOK || (ok && v != want) {
			t.Fatalf("Find %s[%d] = (%v, %v, %v), want (%v, %v)", m.name, k, v, ok, err, want, wantOK)
		}
	}
	check(a, 1, 70, true)
	check(b, 2, 80, true)
	check(b, 7, 777, true)
	check(a, 9, 0, false)
}

// TestTxnConflictNothingApplied: a plain write landing between a
// transaction's read and its commit stales the read set; the single
// attempt must abort with ErrTxnConflict and apply none of its writes.
func TestTxnConflictNothingApplied(t *testing.T) {
	c, a, b := txnTestMaps(t)
	r := c.w.Rank(0)
	if _, err := a.Insert(r, 1, 10); err != nil {
		t.Fatal(err)
	}

	tx := newTx(r)
	h, err := a.txnHooks()
	if err != nil {
		t.Fatal(err)
	}
	kb, _ := a.kbox.Encode(1)
	if _, _, err := tx.txnGet(h, kb); err != nil {
		t.Fatal(err)
	}
	// Out-of-band mutation bumps the key's version.
	if _, err := a.Insert(r, 1, 11); err != nil {
		t.Fatal(err)
	}
	if err := TxnPut(tx, a, 1, 99); err != nil {
		t.Fatal(err)
	}
	if err := TxnPut(tx, b, 3, 33); err != nil {
		t.Fatal(err)
	}
	if err := tx.commit(); !errors.Is(err, ErrTxnConflict) {
		t.Fatalf("commit = %v, want ErrTxnConflict", err)
	}
	if v, ok, _ := a.Find(r, 1); !ok || v != 11 {
		t.Fatalf("a[1] = (%v, %v), want untouched 11", v, ok)
	}
	if _, ok, _ := b.Find(r, 3); ok {
		t.Fatal("b[3] applied by an aborted transaction")
	}
}

// TestTxnRetryUnderContention: concurrent read-modify-write transactions
// on one counter key must not lose increments — every conflict retries
// with a fresh read.
func TestTxnRetryUnderContention(t *testing.T) {
	c, a, _ := txnTestMaps(t)
	r0 := c.w.Rank(0)
	if _, err := a.Insert(r0, 42, 0); err != nil {
		t.Fatal(err)
	}

	const ranks, perRank = 4, 8
	var wg sync.WaitGroup
	errs := make([]error, ranks)
	for i := 0; i < ranks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := c.w.Rank(i)
			for n := 0; n < perRank; n++ {
				err := Txn(r, func(tx *Tx) error {
					v, _, err := TxnGet(tx, a, 42)
					if err != nil {
						return err
					}
					return TxnPut(tx, a, 42, v+1)
				})
				if err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	if v, ok, _ := a.Find(r0, 42); !ok || v != ranks*perRank {
		t.Fatalf("counter = (%v, %v), want %d", v, ok, ranks*perRank)
	}
}

// TestTxnCrashFencesInFlight: a crash/repair cycle between a
// transaction's read and its commit fences the attempt — the read was
// taken against pre-crash state and must not validate.
func TestTxnCrashFencesInFlight(t *testing.T) {
	c, a, _ := txnTestMaps(t, WithReplicas(1, QuorumAll))
	r := c.w.Rank(0)
	if _, err := a.Insert(r, 5, 500); err != nil {
		t.Fatal(err)
	}
	p, _, err := a.partitionOf(5)
	if err != nil {
		t.Fatal(err)
	}

	tx := newTx(r)
	h, _ := a.txnHooks()
	kb, _ := a.kbox.Encode(5)
	if _, _, err := tx.txnGet(h, kb); err != nil {
		t.Fatal(err)
	}
	node := a.servers[p]
	a.CrashNode(node)
	if err := a.RepairNode(node); err != nil {
		t.Fatal(err)
	}
	if err := TxnPut(tx, a, 5, 1); err != nil {
		t.Fatal(err)
	}
	if err := tx.commit(); !errors.Is(err, ErrTxnConflict) {
		t.Fatalf("commit across crash/repair = %v, want ErrTxnConflict", err)
	}
	if v, ok, _ := a.Find(r, 5); !ok || v != 500 {
		t.Fatalf("a[5] = (%v, %v), want repaired 500", v, ok)
	}

	// A fresh transaction against the repaired partition commits.
	if err := Txn(r, func(tx *Tx) error {
		v, _, err := TxnGet(tx, a, 5)
		if err != nil {
			return err
		}
		return TxnPut(tx, a, 5, v+1)
	}); err != nil {
		t.Fatalf("post-repair Txn: %v", err)
	}
	if v, ok, _ := a.Find(r, 5); !ok || v != 501 {
		t.Fatalf("a[5] = (%v, %v), want 501", v, ok)
	}
}

// TestTxnPreparedPartitionFencedByCrash: crash/repair while the partition
// is owner-locked by a prepared transaction clears the owner slot; the
// decide comes back fenced and, with nothing applied anywhere, the
// coordinator surfaces a retryable conflict rather than a torn outcome.
func TestTxnPreparedPartitionFencedByCrash(t *testing.T) {
	c, a, _ := txnTestMaps(t, WithReplicas(1, QuorumAll))
	r := c.w.Rank(0)
	if _, err := a.Insert(r, 5, 500); err != nil {
		t.Fatal(err)
	}
	tx := newTx(r)
	h, _ := a.txnHooks()
	kb, _ := a.kbox.Encode(5)
	if _, _, err := tx.txnGet(h, kb); err != nil {
		t.Fatal(err)
	}
	if err := TxnPut(tx, a, 5, 1); err != nil {
		t.Fatal(err)
	}
	parts := tx.participants()
	if len(parts) != 1 {
		t.Fatalf("participants = %d, want 1", len(parts))
	}
	pt := parts[0]
	resp, err := c.rt.engine.Invoke(r, pt.node, h.fnPrepare, encodeTxnPrepare(tx.id, pt.reads))
	if err != nil || len(resp) != 1 || resp[0] != txnStatusOK {
		t.Fatalf("prepare = (%v, %v), want OK", resp, err)
	}
	node := a.servers[pt.p]
	a.CrashNode(node)
	if err := a.RepairNode(node); err != nil {
		t.Fatal(err)
	}
	if err := tx.commit(); !errors.Is(err, ErrTxnConflict) {
		t.Fatalf("commit after fenced prepare = %v, want ErrTxnConflict", err)
	}
	if v, ok, _ := a.Find(r, 5); !ok || v != 500 {
		t.Fatalf("a[5] = (%v, %v), want untouched 500", v, ok)
	}
}

// TestTxnVshardRejected: vshard-routed maps cannot pin owner slots under
// live resharding; the transactional API reports ErrResharding.
func TestTxnVshardRejected(t *testing.T) {
	_, rt, _ := newTestWorld(t, 4, 1)
	m, err := NewUnorderedMap[int, int](rt, "txn_vshard", WithVirtualNodes(16), WithHybrid(false))
	if err != nil {
		t.Fatal(err)
	}
	tx := newTx(nil)
	if err := TxnPut(tx, m, 1, 1); !errors.Is(err, ErrResharding) {
		t.Fatalf("TxnPut on vshard map = %v, want ErrResharding", err)
	}
	if _, _, err := TxnGet(tx, m, 1); !errors.Is(err, ErrResharding) {
		t.Fatalf("TxnGet on vshard map = %v, want ErrResharding", err)
	}
}

// TestTxnMalformedFrames: the txn verbs validate wire frames like the
// replication verbs do — typed status byte, never a panic.
func TestTxnMalformedFrames(t *testing.T) {
	c, a, _ := txnTestMaps(t)
	r := c.w.Rank(0)
	h, _ := a.txnHooks()
	node := a.servers[0]

	cases := []struct {
		name string
		fn   string
		arg  []byte
	}{
		{"prepare/empty", h.fnPrepare, nil},
		{"prepare/bad-sub", h.fnPrepare, []byte{99}},
		{"prepare/short", h.fnPrepare, []byte{txnSubPrepare, 1, 2}},
		{"prepare/huge-count", h.fnPrepare, func() []byte {
			arg := encodeTxnPrepare(7, []txnRead{{kb: []byte{1}, ver: 0}})
			arg[9], arg[10] = 0xff, 0xff
			return arg
		}()},
		{"decide/short", h.fnDecide, []byte{1, 2, 3}},
		{"decide/bad-verb", h.fnDecide, func() []byte {
			arg := encodeTxnDecide(7, true, []txnWrite{{verb: txnVerbPut, kb: []byte{1}, vb: []byte{2}}})
			arg[13] = 77
			return arg
		}()},
		{"decide/torn-write", h.fnDecide, func() []byte {
			arg := encodeTxnDecide(7, true, []txnWrite{{verb: txnVerbPut, kb: []byte{1}, vb: []byte{2}}})
			return arg[:len(arg)-2]
		}()},
		{"decide/zero-id", h.fnDecide, encodeTxnDecide(0, true, nil)},
	}
	for _, tc := range cases {
		resp, err := c.rt.engine.Invoke(r, node, tc.fn, tc.arg)
		if err != nil {
			t.Errorf("%s: transport error %v", tc.name, err)
			continue
		}
		if len(resp) != 1 || resp[0] != txnStatusMalformed {
			t.Errorf("%s: resp = %v, want malformed status", tc.name, resp)
		}
	}
}

// TestTxnVersionStateBounded: a million distinct-key inserts leave a
// partition's transaction version state at the one fixed-size table its
// first mutation allocated (a per-key version map would hold an entry per
// key), and versioned reads still see writes: a read, then a plain
// overwrite of the key inserted last, fails validation.
func TestTxnVersionStateBounded(t *testing.T) {
	w, rt, _ := newTestWorld(t, 1, 1)
	m, err := NewUnorderedMap[int, int](rt, "txn_bounded")
	if err != nil {
		t.Fatal(err)
	}
	r := w.Rank(0)
	if _, err := m.Insert(r, 0, 0); err != nil {
		t.Fatal(err)
	}
	tp := &m.tx.parts[0]
	table := tp.vers
	if table == nil {
		t.Fatal("no version table after the first insert")
	}
	const n = 1 << 20
	m.parts[0].Reserve(n)
	for k := 1; k < n; k++ {
		if _, err := m.Insert(r, k, k); err != nil {
			t.Fatal(err)
		}
	}
	if tp.vers != table {
		t.Fatal("version table reallocated across inserts")
	}

	tx := newTx(r)
	h, _ := m.txnHooks()
	kb, _ := m.kbox.Encode(n - 1)
	if _, _, err := tx.txnGet(h, kb); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Insert(r, n-1, 7); err != nil {
		t.Fatal(err)
	}
	if err := TxnPut(tx, m, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := tx.commit(); !errors.Is(err, ErrTxnConflict) {
		t.Fatalf("commit after an overwrite of a read key = %v, want ErrTxnConflict", err)
	}
}

// TestTxnStripeCollisionConflicts: two keys sharing a version-table slot
// share a version, so a plain write to one fails validation of a read of
// the other — a spurious conflict, the price of the fixed table.
func TestTxnStripeCollisionConflicts(t *testing.T) {
	c, a, _ := txnTestMaps(t)
	r := c.w.Rank(0)
	p0, kb0, _ := a.partitionOf(0)
	other := -1
	for k := 1; other < 0; k++ {
		p, kb, _ := a.partitionOf(k)
		if p == p0 && txnStripe(kb) == txnStripe(kb0) {
			other = k
		}
	}
	tx := newTx(r)
	h, _ := a.txnHooks()
	if _, _, err := tx.txnGet(h, kb0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Insert(r, other, 1); err != nil {
		t.Fatal(err)
	}
	if err := TxnPut(tx, a, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := tx.commit(); !errors.Is(err, ErrTxnConflict) {
		t.Fatalf("commit after a write to a same-slot key = %v, want ErrTxnConflict", err)
	}
}
