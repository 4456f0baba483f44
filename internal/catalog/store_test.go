package catalog

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// key derives a distinct Key from a byte.
func key(b byte) Key {
	var k Key
	k[0] = b
	k[31] = ^b
	return k
}

// ent builds a small entry.
func ent(b byte, name string, vals ...float64) Entry {
	return Entry{Key: key(b), Name: name, Vec: vals}
}

// mustAppend journals an op or fails the test.
func mustAppend(t *testing.T, s *Store, op Op) {
	t.Helper()
	if err := s.Append(op); err != nil {
		t.Fatal(err)
	}
}

func add(e Entry) Op  { return Op{Kind: OpAdd, Entry: e} }
func remove(k Key) Op { return Op{Kind: OpRemove, Entry: Entry{Key: k}} }

func TestStoreAppendReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "fp-1")
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, add(ent(1, "price", 1, 2)))
	mustAppend(t, s, add(ent(2, "qty", 3, 4)))
	mustAppend(t, s, remove(key(1)))
	mustAppend(t, s, add(ent(3, "score", 5, 6)))
	if s.Len() != 2 || s.Dim() != 2 {
		t.Fatalf("len %d dim %d", s.Len(), s.Dim())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: same ops, same live view, same order.
	r, err := Open(dir, "fp-1")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := len(r.Ops()); got != 4 {
		t.Fatalf("replayed %d ops, want 4", got)
	}
	live := r.Live()
	if len(live) != 2 || live[0].Name != "qty" || live[1].Name != "score" {
		t.Fatalf("live after replay: %+v", live)
	}
	if live[0].Vec[0] != 3 || live[1].Vec[1] != 6 {
		t.Fatalf("live vectors after replay: %+v", live)
	}
}

func TestStoreValidation(t *testing.T) {
	s, err := Open(t.TempDir(), "fp")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustAppend(t, s, add(ent(1, "a", 1, 2)))
	for name, op := range map[string]Op{
		"duplicate-add":  add(ent(1, "a2", 9, 9)),
		"dim-mismatch":   add(ent(2, "b", 1, 2, 3)),
		"empty-vector":   add(ent(3, "c")),
		"remove-missing": remove(key(9)),
		"non-finite":     {Kind: OpAdd, Entry: Entry{Key: key(4), Name: "d", Vec: []float64{1, inf()}}},
		"unknown-kind":   {Kind: 9, Entry: ent(5, "e", 1, 2)},
	} {
		if err := s.Append(op); !errors.Is(err, ErrInput) {
			t.Errorf("%s: want ErrInput, got %v", name, err)
		}
	}
	// A failed append must not corrupt state: the original entry is intact
	// and a legal append still works.
	if s.Len() != 1 {
		t.Fatalf("len %d after rejected appends", s.Len())
	}
	mustAppend(t, s, add(ent(6, "f", 7, 8)))
	// Re-adding a removed key is legal (a column rejoining the catalog).
	mustAppend(t, s, remove(key(1)))
	mustAppend(t, s, add(ent(1, "a-again", 5, 5)))
	live := s.Live()
	if len(live) != 2 || live[0].Name != "f" || live[1].Name != "a-again" {
		t.Fatalf("re-add order: %+v", live)
	}
}

func inf() float64 { return math.Inf(1) }

func TestStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "fp")
	if err != nil {
		t.Fatal(err)
	}
	for b := byte(1); b <= 6; b++ {
		mustAppend(t, s, add(ent(b, string('a'+rune(b)), float64(b), 0)))
	}
	mustAppend(t, s, remove(key(2)))
	mustAppend(t, s, remove(key(5)))
	wantLive := s.Live()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if len(s.Ops()) != 0 {
		t.Fatalf("%d ops after compaction", len(s.Ops()))
	}
	if got := s.Live(); len(got) != len(wantLive) {
		t.Fatalf("live %d after compaction, want %d", len(got), len(wantLive))
	}
	for i, e := range s.Live() {
		if e.Key != wantLive[i].Key || e.Name != wantLive[i].Name {
			t.Fatalf("entry %d reordered by compaction: %+v vs %+v", i, e, wantLive[i])
		}
	}
	// Mutations keep working after compaction and survive a reopen.
	mustAppend(t, s, add(ent(7, "late", 7, 0)))
	mustAppend(t, s, remove(key(1)))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, "fp")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if len(r.Snapshot()) != 4 || len(r.Ops()) != 2 {
		t.Fatalf("reopened snapshot %d ops %d, want 4/2", len(r.Snapshot()), len(r.Ops()))
	}
	live := r.Live()
	if len(live) != 4 || live[len(live)-1].Name != "late" {
		t.Fatalf("reopened live: %+v", live)
	}
}

func TestStoreTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "fp")
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, add(ent(1, "a", 1, 2)))
	mustAppend(t, s, add(ent(2, "b", 3, 4)))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash mid-append: cut into the final record.
	jnl := filepath.Join(dir, journalFile)
	st, err := os.Stat(jnl)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(jnl, st.Size()-7); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, "fp")
	if err != nil {
		t.Fatalf("open after torn tail: %v", err)
	}
	if r.Len() != 1 || r.Live()[0].Name != "a" {
		t.Fatalf("live after torn tail: %+v", r.Live())
	}
	// The tail was truncated away, so appending again produces a journal
	// that replays cleanly.
	mustAppend(t, r, add(ent(3, "c", 5, 6)))
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	rr, err := Open(dir, "fp")
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close()
	if rr.Len() != 2 {
		t.Fatalf("len %d after recovery append", rr.Len())
	}
}

func TestStoreCorruptionErrors(t *testing.T) {
	mk := func(t *testing.T) string {
		dir := t.TempDir()
		s, err := Open(dir, "fp")
		if err != nil {
			t.Fatal(err)
		}
		mustAppend(t, s, add(ent(1, "a", 1, 2)))
		mustAppend(t, s, add(ent(2, "b", 3, 4)))
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		mustAppend(t, s, add(ent(3, "c", 5, 6)))
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	t.Run("journal-bit-flip", func(t *testing.T) {
		dir := mk(t)
		jnl := filepath.Join(dir, journalFile)
		raw, err := os.ReadFile(jnl)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)-10] ^= 0xFF // inside the record payload → CRC mismatch
		if err := os.WriteFile(jnl, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, "fp"); !errors.Is(err, ErrFormat) {
			t.Fatalf("want ErrFormat, got %v", err)
		}
	})
	t.Run("journal-bad-magic", func(t *testing.T) {
		dir := mk(t)
		jnl := filepath.Join(dir, journalFile)
		raw, _ := os.ReadFile(jnl)
		raw[0] = 'X'
		os.WriteFile(jnl, raw, 0o644)
		if _, err := Open(dir, "fp"); !errors.Is(err, ErrFormat) {
			t.Fatalf("want ErrFormat, got %v", err)
		}
	})
	t.Run("snapshot-bit-flip", func(t *testing.T) {
		dir := mk(t)
		snap := filepath.Join(dir, snapshotFile)
		raw, _ := os.ReadFile(snap)
		raw[len(raw)/2] ^= 0xFF
		os.WriteFile(snap, raw, 0o644)
		if _, err := Open(dir, "fp"); !errors.Is(err, ErrFormat) {
			t.Fatalf("want ErrFormat, got %v", err)
		}
	})
	t.Run("snapshot-truncated", func(t *testing.T) {
		dir := mk(t)
		snap := filepath.Join(dir, snapshotFile)
		raw, _ := os.ReadFile(snap)
		os.WriteFile(snap, raw[:len(raw)/2], 0o644)
		if _, err := Open(dir, "fp"); !errors.Is(err, ErrFormat) {
			t.Fatalf("want ErrFormat, got %v", err)
		}
	})
}

// TestStoreStaleJournalDiscarded simulates a crash between the snapshot
// rename and the journal reset of a compaction: the journal carries an
// older generation and must be discarded, not double-applied.
func TestStoreStaleJournalDiscarded(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "fp")
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, add(ent(1, "a", 1, 2)))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Save the generation-0 journal, compact (gen 1), then restore the old
	// journal over the reset one.
	oldJnl, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, journalFile), oldJnl, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, "fp")
	if err != nil {
		t.Fatalf("open with stale journal: %v", err)
	}
	defer r.Close()
	// The add is present exactly once (from the snapshot); the stale
	// journal was not replayed on top of it.
	if r.Len() != 1 || len(r.Ops()) != 0 {
		t.Fatalf("len %d, ops %d after stale-journal open", r.Len(), len(r.Ops()))
	}
}

func TestStoreFingerprintBinding(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "fp-A")
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, add(ent(1, "a", 1, 2)))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, "fp-B"); !errors.Is(err, ErrInput) {
		t.Fatalf("mismatched fingerprint: %v", err)
	}
	// Empty fingerprint adopts the recorded one.
	r, err := Open(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Fingerprint() != "fp-A" {
		t.Fatalf("adopted fingerprint %q", r.Fingerprint())
	}
}

// TestIdentityDiff: a binding mismatch is reported from the first field that
// differs, not by two equal prefixes.
func TestIdentityDiff(t *testing.T) {
	const fpA = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	const fpB = "fedcba9876543210fedcba9876543210fedcba9876543210fedcba9876543210"
	for _, tc := range []struct{ a, b, wantA, wantB string }{
		{fpA + "|metric=cosine|prec=float64|hnsw:m=16,efc=200,seed=0,batch=64",
			fpA + "|metric=cosine|prec=float64|hnsw:m=16,efc=48,seed=0,batch=64",
			"…|hnsw:m=16,efc=200,seed=0,batch=64", "…|hnsw:m=16,efc=48,seed=0,batch=64"},
		{fpA + "|metric=cosine", fpB + "|metric=cosine", fpA + "|metric=cosine", fpB + "|metric=cosine"},
		{fpA + "|metric=cosine|prec=float64", fpA + "|metric=l2|prec=float64|shard=0/2",
			"…|metric=cosine|prec=float64", "…|metric=l2|prec=float64|shard=0/2"},
		{"fp-A", "fp-B", "fp-A", "fp-B"},
	} {
		gotA, gotB := IdentityDiff(tc.a, tc.b)
		if gotA != tc.wantA || gotB != tc.wantB {
			t.Errorf("IdentityDiff(%q, %q) = %q, %q; want %q, %q", tc.a, tc.b, gotA, gotB, tc.wantA, tc.wantB)
		}
	}

	// The mismatch Open reports is that diff.
	dir := t.TempDir()
	s, err := Open(dir, fpA+"|hnsw:m=16,efc=200")
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, add(ent(1, "a", 1, 2)))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, fpA+"|hnsw:m=16,efc=48")
	if !errors.Is(err, ErrInput) || !strings.Contains(err.Error(), "efc=200") || !strings.Contains(err.Error(), "efc=48") {
		t.Errorf("reconfigured-index open: %v; want ErrInput naming efc=200 and efc=48", err)
	}
}

func TestStoreRead(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "fp")
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, add(ent(1, "a", 1, 2)))
	mustAppend(t, s, add(ent(2, "b", 3, 4)))
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, remove(key(1)))
	mustAppend(t, s, add(ent(3, "c", 5, 6)))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	fp, live, err := Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if fp != "fp" || len(live) != 2 || live[0].Name != "b" || live[1].Name != "c" {
		t.Fatalf("read: fp %q live %+v", fp, live)
	}
	// Read on a missing directory yields an empty catalog, not an error:
	// there is simply nothing recorded yet.
	fp, live, err = Read(filepath.Join(dir, "nope"))
	if err != nil || fp != "" || len(live) != 0 {
		t.Fatalf("read of missing dir: %q %v %v", fp, live, err)
	}
}

func TestStoreClosedRejectsMutations(t *testing.T) {
	s, err := Open(t.TempDir(), "fp")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(add(ent(1, "a", 1))); !errors.Is(err, ErrInput) {
		t.Fatalf("append after close: %v", err)
	}
	if err := s.Compact(); !errors.Is(err, ErrInput) {
		t.Fatalf("compact after close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestStoreLockExcludesSecondOpen: a second Open of the same directory
// fails while the first store is open, and succeeds after Close.
func TestStoreLockExcludesSecondOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, "fp"); !errors.Is(err, ErrInput) {
		t.Fatalf("second open: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, "fp")
	if err != nil {
		t.Fatalf("open after close: %v", err)
	}
	r.Close()
}

// TestStoreAppendFailureQuarantined: a failed journal write must not let
// later appends land after torn bytes. Simulated by closing the journal
// handle out from under the store.
func TestStoreAppendFailureQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "fp")
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, add(ent(1, "a", 1, 2)))
	s.jf.Close() // simulate the handle going bad (write and truncate fail)
	if err := s.Append(add(ent(2, "b", 3, 4))); err == nil {
		t.Fatal("append on a dead handle must fail")
	}
	if !s.broken {
		t.Fatal("store not marked broken after truncate failure")
	}
	if err := s.Append(add(ent(3, "c", 5, 6))); !errors.Is(err, ErrInput) {
		t.Fatalf("append on broken store: %v", err)
	}
	if err := s.Compact(); !errors.Is(err, ErrInput) {
		t.Fatalf("compact on broken store: %v", err)
	}
	// The on-disk journal still replays cleanly to the pre-failure state.
	releaseLock(s.lock)
	_, live, err := Read(dir)
	if err != nil || len(live) != 1 || live[0].Name != "a" {
		t.Fatalf("read after quarantine: %v %+v", err, live)
	}
}
