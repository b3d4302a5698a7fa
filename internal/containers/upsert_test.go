package containers

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestUpsertInsertsWhenAbsent(t *testing.T) {
	m := NewCuckooMap[string, int]()
	isNew := m.Upsert("k", func(old int, exists bool) int {
		if exists {
			t.Fatal("exists on empty map")
		}
		return 7
	})
	if !isNew {
		t.Fatal("first upsert should insert")
	}
	if v, ok := m.Find("k"); !ok || v != 7 {
		t.Fatalf("Find = %d,%v", v, ok)
	}
}

func TestUpsertMergesWhenPresent(t *testing.T) {
	m := NewCuckooMap[string, int]()
	m.Insert("k", 10)
	isNew := m.Upsert("k", func(old int, exists bool) int {
		if !exists || old != 10 {
			t.Fatalf("old = %d, exists = %v", old, exists)
		}
		return old + 5
	})
	if isNew {
		t.Fatal("upsert of present key reported new")
	}
	if v, _ := m.Find("k"); v != 15 {
		t.Fatalf("v = %d", v)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d", m.Len())
	}
}

// The critical property: concurrent increments must not lose updates.
func TestUpsertConcurrentIncrementsExact(t *testing.T) {
	m := NewCuckooMap[int, int]()
	const workers, per, keys = 8, 4000, 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.Upsert(i%keys, func(old int, _ bool) int { return old + 1 })
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for k := 0; k < keys; k++ {
		v, ok := m.Find(k)
		if !ok {
			t.Fatalf("key %d missing", k)
		}
		total += v
	}
	if total != workers*per {
		t.Fatalf("lost updates: total %d, want %d", total, workers*per)
	}
}

func TestUpsertUnderDisplacementPressure(t *testing.T) {
	// Tiny table forces the exclusive-latch slow path.
	m := NewCuckooMapSize[int, int](8)
	for i := 0; i < 3000; i++ {
		if isNew := m.Upsert(i, func(old int, exists bool) int { return i }); !isNew {
			t.Fatalf("Upsert(%d) reported update", i)
		}
	}
	if m.Len() != 3000 {
		t.Fatalf("Len = %d", m.Len())
	}
	for i := 0; i < 3000; i++ {
		if v, ok := m.Find(i); !ok || v != i {
			t.Fatalf("lost %d (got %d,%v)", i, v, ok)
		}
	}
}

func TestUpsertQuickAgainstModel(t *testing.T) {
	type op struct {
		Key uint8
		Add int8
	}
	prop := func(ops []op) bool {
		m := NewCuckooMapSize[uint8, int](8)
		model := map[uint8]int{}
		for _, o := range ops {
			_, existed := model[o.Key]
			model[o.Key] += int(o.Add)
			isNew := m.Upsert(o.Key, func(old int, exists bool) int {
				return old + int(o.Add)
			})
			if isNew == existed {
				return false
			}
		}
		if m.Len() != len(model) {
			return false
		}
		for k, v := range model {
			if got, ok := m.Find(k); !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestUpsertMixedWithInsertDelete(t *testing.T) {
	m := NewCuckooMap[int, int]()
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := i % 64
				switch w % 3 {
				case 0:
					m.Upsert(k, func(old int, _ bool) int { return old + 1 })
				case 1:
					m.Find(k)
				case 2:
					if i%17 == 0 {
						m.Delete(k)
					} else {
						m.Upsert(k, func(old int, _ bool) int { return old + 1 })
					}
				}
			}
		}(w)
	}
	wg.Wait()
	// Structure must remain consistent: scan agrees with Len.
	n := 0
	m.Range(func(int, int) bool { n++; return true })
	if n != m.Len() {
		t.Fatalf("scan %d vs Len %d", n, m.Len())
	}
}

// Racing upserts of the same absent keys must store each key exactly
// once: a loser of the first-slot CAS rescans rather than claiming the
// second slot with a stale view, which would leave two entries for one
// key and split later merges between them.
func TestUpsertConcurrentFreshKeysStoredOnce(t *testing.T) {
	const (
		workers = 8
		rounds  = 200
		keys    = 16
	)
	sum := func(old int, exists bool) int {
		if exists {
			return old + 1
		}
		return 1
	}
	m := NewCuckooMapSize[int, int](rounds * keys * 2)
	for r := 0; r < rounds; r++ {
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for k := r * keys; k < (r+1)*keys; k++ {
					m.Upsert(k, sum)
				}
			}()
		}
		close(start)
		wg.Wait()
	}
	seen := make(map[int]int)
	total := 0
	m.Range(func(k, v int) bool {
		seen[k]++
		total += v
		return true
	})
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("key %d stored %d times", k, n)
		}
	}
	if len(seen) != rounds*keys || m.Len() != rounds*keys {
		t.Fatalf("%d distinct keys, Len %d, want %d", len(seen), m.Len(), rounds*keys)
	}
	if total != workers*rounds*keys {
		t.Fatalf("merged counts sum to %d, want %d calls", total, workers*rounds*keys)
	}
}
