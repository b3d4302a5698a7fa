package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"hcl/internal/databox"
	"hcl/internal/memory"
)

func TestJournalAppendReplay(t *testing.T) {
	dir := t.TempDir()
	j, err := openJournal(dir, "unit", 0, memory.SyncRelaxed)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 100; i++ {
		rec := []byte(fmt.Sprintf("record-%04d", i))
		want = append(want, rec)
		typ := recPut
		if i%3 == 0 {
			typ = recDel
		}
		if err := j.append(typ, rec); err != nil {
			t.Fatal(err)
		}
	}
	var got [][]byte
	if err := j.replay(func(typ byte, rec []byte) error {
		i := len(got)
		wantTyp := recPut
		if i%3 == 0 {
			wantTyp = recDel
		}
		if typ != wantTyp {
			t.Fatalf("record %d type = %d, want %d", i, typ, wantTyp)
		}
		cp := make([]byte, len(rec))
		copy(cp, rec)
		got = append(got, cp)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records", len(got))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
}

func TestJournalGrowsPastInitialSize(t *testing.T) {
	dir := t.TempDir()
	j, err := openJournal(dir, "big", 1, memory.SyncRelaxed)
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 10_000) // larger than journalInitialSize/8
	for i := 0; i < 32; i++ {
		big[0] = byte(i)
		if err := j.append(recPut, big); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	count := 0
	if err := j.replay(func(_ byte, rec []byte) error {
		if len(rec) != len(big) || rec[0] != byte(count) {
			t.Fatalf("record %d corrupted", count)
		}
		count++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 32 {
		t.Fatalf("replayed %d", count)
	}
	j.close()
}

func TestJournalSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	j, err := openJournal(dir, "re", 2, memory.SyncEager)
	if err != nil {
		t.Fatal(err)
	}
	j.append(recPut, []byte("one"))
	j.append(recPut, []byte("two"))
	if err := j.close(); err != nil {
		t.Fatal(err)
	}

	j2, err := openJournal(dir, "re", 2, memory.SyncEager)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.close()
	var got []string
	j2.replay(func(_ byte, rec []byte) error {
		got = append(got, string(rec))
		return nil
	})
	if len(got) != 2 || got[0] != "one" || got[1] != "two" {
		t.Fatalf("reopened replay = %v", got)
	}
	// Appends continue after the existing records.
	j2.append(recPut, []byte("three"))
	got = got[:0]
	j2.replay(func(_ byte, rec []byte) error {
		got = append(got, string(rec))
		return nil
	})
	if len(got) != 3 || got[2] != "three" {
		t.Fatalf("after reopen-append = %v", got)
	}
}

func TestSanitize(t *testing.T) {
	// Filesystem-safe names map to themselves.
	for _, in := range []string{"plain", "dots.are.ok", "under_score", "da-sh"} {
		if got := sanitize(in); got != in {
			t.Fatalf("sanitize(%q) = %q, want identity", in, got)
		}
	}
	// Rewritten names keep a readable stem and gain a hash of the
	// original, so distinct names can never collide onto one file.
	got := sanitize("with/slash")
	if !strings.HasPrefix(got, "with_slash-") {
		t.Fatalf("sanitize(with/slash) = %q, want with_slash-<hash>", got)
	}
	if strings.ContainsAny(got, "/:*? ") {
		t.Fatalf("sanitize left unsafe runes: %q", got)
	}
	// The historical collision: "a/b" and "a_b" used to both map to
	// "a_b" and silently share a journal file.
	if sanitize("a/b") == sanitize("a_b") {
		t.Fatalf("sanitize(a/b) collides with sanitize(a_b): %q", sanitize("a/b"))
	}
	if sanitize("a/b") == sanitize("a.b") {
		t.Fatal("distinct rewritten names collide")
	}
}

// TestJournalNameCollisionRejected is the journal-name-collision
// regression test: two containers whose names sanitize differently get
// distinct files, and opening the very same (dir, name, part) twice —
// which WOULD share a file — is rejected loudly instead of corrupting.
func TestJournalNameCollisionRejected(t *testing.T) {
	dir := t.TempDir()
	ja, err := openJournal(dir, "a/b", 0, memory.SyncRelaxed)
	if err != nil {
		t.Fatal(err)
	}
	defer ja.close()
	jb, err := openJournal(dir, "a_b", 0, memory.SyncRelaxed)
	if err != nil {
		t.Fatalf("distinct names rejected as colliding: %v", err)
	}
	defer jb.close()
	if ja.path == jb.path {
		t.Fatalf("a/b and a_b share journal file %s", ja.path)
	}
	if _, err := openJournal(dir, "a/b", 0, memory.SyncRelaxed); err == nil {
		t.Fatal("duplicate (dir, name, part) open was not rejected")
	}
	// After close the slot frees up (a restarted container may reopen).
	ja.close()
	ja2, err := openJournal(dir, "a/b", 0, memory.SyncRelaxed)
	if err != nil {
		t.Fatalf("reopen after close rejected: %v", err)
	}
	ja2.close()
}

// TestJournalTornTailRecovery covers the crash-consistency bug: a torn
// write (record bytes present but committed-size header pointing past
// the segment, or a garbage length in the tail) must end replay at the
// last good record and truncate, not read out of bounds or replay junk.
func TestJournalTornTailRecovery(t *testing.T) {
	t.Run("header_past_segment", func(t *testing.T) {
		dir := t.TempDir()
		j, err := openJournal(dir, "torn", 0, memory.SyncEager)
		if err != nil {
			t.Fatal(err)
		}
		j.append(recPut, []byte("good-1"))
		j.append(recPut, []byte("good-2"))
		// Simulate the header flush landing before the record write:
		// committed size points far past anything actually written.
		if err := j.seg.PutUint64(0, uint64(j.seg.Len()*4)); err != nil {
			t.Fatal(err)
		}
		j.close()

		j2, err := openJournal(dir, "torn", 0, memory.SyncEager)
		if err != nil {
			t.Fatal(err)
		}
		defer j2.close()
		var got []string
		if err := j2.replay(func(_ byte, rec []byte) error {
			got = append(got, string(rec))
			return nil
		}); err != nil {
			t.Fatalf("replay of torn journal errored: %v", err)
		}
		if len(got) != 2 || got[0] != "good-1" || got[1] != "good-2" {
			t.Fatalf("replay after torn header = %v", got)
		}
		// The committed size was truncated back: a second replay and
		// further appends work on the repaired log.
		j2.append(recPut, []byte("good-3"))
		got = got[:0]
		j2.replay(func(_ byte, rec []byte) error {
			got = append(got, string(rec))
			return nil
		})
		if len(got) != 3 || got[2] != "good-3" {
			t.Fatalf("append after truncation = %v", got)
		}
	})

	t.Run("garbage_tail_record", func(t *testing.T) {
		dir := t.TempDir()
		j, err := openJournal(dir, "torn2", 0, memory.SyncEager)
		if err != nil {
			t.Fatal(err)
		}
		j.append(recPut, []byte("keep"))
		// A record whose length prefix was written as garbage before the
		// crash: huge n, committed header already covering it.
		tail := j.off
		var lenBuf [4]byte
		binary.LittleEndian.PutUint32(lenBuf[:], 0xFFFF_FF00)
		if err := j.seg.WriteAt(tail, lenBuf[:]); err != nil {
			t.Fatal(err)
		}
		if err := j.seg.PutUint64(0, uint64(tail+4+16-journalHeader)); err != nil {
			t.Fatal(err)
		}
		j.close()

		j2, err := openJournal(dir, "torn2", 0, memory.SyncEager)
		if err != nil {
			t.Fatal(err)
		}
		defer j2.close()
		var got []string
		if err := j2.replay(func(_ byte, rec []byte) error {
			got = append(got, string(rec))
			return nil
		}); err != nil {
			t.Fatalf("replay of garbage tail errored: %v", err)
		}
		if len(got) != 1 || got[0] != "keep" {
			t.Fatalf("replay after garbage tail = %v", got)
		}
	})

	t.Run("unknown_record_type", func(t *testing.T) {
		dir := t.TempDir()
		j, err := openJournal(dir, "torn3", 0, memory.SyncEager)
		if err != nil {
			t.Fatal(err)
		}
		j.append(recPut, []byte("keep"))
		j.append(0x7F, []byte("junk")) // type from a future/corrupt format
		j.close()

		j2, err := openJournal(dir, "torn3", 0, memory.SyncEager)
		if err != nil {
			t.Fatal(err)
		}
		defer j2.close()
		count := 0
		if err := j2.replay(func(_ byte, _ []byte) error {
			count++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if count != 1 {
			t.Fatalf("unknown-type tail replayed %d records, want 1", count)
		}
	})
}

func TestJournalFilesAreSeparatedByPartition(t *testing.T) {
	dir := t.TempDir()
	j0, err := openJournal(dir, "multi", 0, memory.SyncRelaxed)
	if err != nil {
		t.Fatal(err)
	}
	j1, err := openJournal(dir, "multi", 1, memory.SyncRelaxed)
	if err != nil {
		t.Fatal(err)
	}
	j0.append(recPut, []byte("p0"))
	j1.append(recPut, []byte("p1"))
	j0.close()
	j1.close()
	if j0.path == j1.path {
		t.Fatal("partitions share a journal file")
	}
	if filepath.Dir(j0.path) != dir {
		t.Fatalf("journal not in dir: %s", j0.path)
	}
}

func TestMergeStreamsEdgeCases(t *testing.T) {
	less := func(a, b int) bool { return a < b }
	// Empty input.
	if got := mergeStreams[int, int](nil, less, 10); len(got) != 0 {
		t.Fatalf("empty merge = %v", got)
	}
	// Uneven streams with duplicates across streams.
	streams := [][]Pair[int, int]{
		{{1, 0}, {4, 0}, {9, 0}},
		{},
		{{2, 0}, {4, 0}},
	}
	got := mergeStreams(streams, less, 10)
	want := []int{1, 2, 4, 4, 9}
	if len(got) != len(want) {
		t.Fatalf("merge = %v", got)
	}
	for i := range want {
		if got[i].Key != want[i] {
			t.Fatalf("merge[%d] = %d, want %d", i, got[i].Key, want[i])
		}
	}
	// Limit truncates.
	if got := mergeStreams(streams, less, 2); len(got) != 2 || got[1].Key != 2 {
		t.Fatalf("limited merge = %v", got)
	}
}

func TestLogCostAndSteps(t *testing.T) {
	if logCost(100, 0) != 100 || logCost(100, 1) != 100 {
		t.Fatal("logCost base cases")
	}
	if logCost(100, 1024) != 100*11 {
		t.Fatalf("logCost(1024) = %d", logCost(100, 1024))
	}
	if logSteps(1) != 1 || logSteps(2) != 2 || logSteps(1024) != 11 {
		t.Fatal("logSteps")
	}
}

// A journal that grew past journalInitialSize must reopen at its full
// extent. The old opener truncated the backing file back to the initial
// 64 KiB, so the torn-tail validation silently discarded every record
// past it — data loss dressed up as crash recovery.
func TestJournalGrownFileSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	j, err := openJournal(dir, "regrow", 0, memory.SyncRelaxed)
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 10_000)
	const n = 32 // ~320 KB, well past the 64 KiB initial size
	for i := 0; i < n; i++ {
		big[0] = byte(i)
		if err := j.append(recPut, big); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}

	j2, err := openJournal(dir, "regrow", 0, memory.SyncRelaxed)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.close()
	count := 0
	if err := j2.replay(func(_ byte, rec []byte) error {
		if len(rec) != len(big) || rec[0] != byte(count) {
			t.Fatalf("record %d corrupted after reopen", count)
		}
		count++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("reopened replay kept %d of %d records", count, n)
	}
}

// bincViaCodec is binc behind the Codec interface, so a Box built with it
// takes the reflective encoder rather than the direct string/[]byte path.
type bincViaCodec struct{ databox.Codec }

// TestJournalFromReflectivePathReplays: records written by reflective
// binc replay through the default codec's direct string and []byte path,
// so journals written before that path existed still open — the two
// produce the same bytes.
func TestJournalFromReflectivePathReplays(t *testing.T) {
	dir := t.TempDir()
	want := map[string][]byte{"alpha": []byte("one"), "": {}, "long-" + strings.Repeat("k", 300): nil}
	w, rt, _ := newTestWorld(t, 1, 1)
	m, err := NewUnorderedMap[string, []byte](rt, "jcompat",
		WithPersistence(dir, memory.SyncEager), WithCodec(bincViaCodec{databox.Binc()}))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range want {
		if _, err := m.Insert(w.Rank(0), k, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.CloseJournals(); err != nil {
		t.Fatal(err)
	}

	w2, rt2, _ := newTestWorld(t, 1, 1)
	m2, err := NewUnorderedMap[string, []byte](rt2, "jcompat", WithPersistence(dir, memory.SyncEager))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.CloseJournals()
	for k, v := range want {
		got, ok, err := m2.Find(w2.Rank(0), k)
		if err != nil || !ok || !bytes.Equal(got, v) || (got == nil) != (v == nil) {
			t.Fatalf("replayed %q = %q,%v,%v, want %q", k, got, ok, err, v)
		}
	}
}
