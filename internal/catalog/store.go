package catalog

// The versioned on-disk embedding store: snapshot + journal in one
// directory.
//
// Snapshot layout ("snapshot.gemcat"), little-endian:
//
//	magic       [8]byte  "gemcat\x00\x02" (v1 "gemcat\x00\x01" still reads)
//	body        generation uint64, fpLen uint32 + fingerprint,
//	            dim uint32, count uint32,
//	            count × (key [32]byte, seq uint64 [v2 only],
//	                     nameLen uint32 + name, dim float64s)
//	crc         uint32   IEEE CRC-32 of the body
//
// The journal ("journal.gemcat", see journal.go) holds every mutation
// since the snapshot was written. Compact folds the live state into a new
// snapshot (written to a temp file, fsynced, renamed) at generation g+1
// and then resets the journal to generation g+1; a crash between those two
// steps leaves a stale journal whose lower generation makes the next Open
// discard it instead of double-applying it.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
)

var (
	snapshotMagicV1 = [8]byte{'g', 'e', 'm', 'c', 'a', 't', 0, 1}
	snapshotMagic   = [8]byte{'g', 'e', 'm', 'c', 'a', 't', 0, 2}
)

const (
	snapshotFile = "snapshot.gemcat"
	journalFile  = "journal.gemcat"
)

// Store is the durable, mutable catalog: live entries plus the op history
// since the last compaction. Safe for concurrent use within one process;
// a lock file makes a second process's Open fail loudly instead of
// interleaving journal appends.
type Store struct {
	mu  sync.Mutex
	dir string
	fp  string
	gen uint64
	dim int // 0 until the first entry fixes it

	snap []Entry
	ops  []Op
	jf   *os.File
	lock *os.File
	// jsize is the byte length of the intact journal prefix. A failed
	// append truncates back to it; if even the truncation fails the store
	// is marked broken so no later append can write after torn bytes.
	jsize  int64
	broken bool

	// live maps key → (sequence, entry) for the surviving add events; the
	// sequence numbers order Live() identically to the id order a replay
	// into an index produces.
	live    map[Key]liveRec
	nextSeq int
	closed  bool
}

type liveRec struct {
	seq int
	e   Entry
}

// loadedDir is the decoded on-disk state of a store directory, shared by
// Open and Read so the two cannot drift in how they reconcile snapshot
// and journal.
type loadedDir struct {
	fp      string
	gen     uint64 // snapshot generation (0 without a snapshot)
	dim     int
	snap    []Entry
	ops     []Op
	jnlSeen bool  // journal file exists
	jnlOK   bool  // journal matches the snapshot generation (ops valid)
	goodLen int64 // intact journal prefix length (when jnlOK)
	jnlLen  int64 // raw journal file length (when jnlSeen)
	jnlVer  int   // journal format version (when jnlOK)
}

// IdentityDiff drops the leading '|'-separated fields two store bindings
// share, so a mismatch message shows where they part ("…|hnsw:m=16,efc=200,…"
// against "…|hnsw:m=16,efc=48,…") where equal-length prefixes of both would
// print the same model digest twice.
func IdentityDiff(a, b string) (string, string) {
	shared := ""
	for {
		i := strings.IndexByte(a, '|')
		if i < 0 || !strings.HasPrefix(b, a[:i+1]) {
			return shared + a, shared + b
		}
		a, b, shared = a[i+1:], b[i+1:], "…|"
	}
}

// loadDir reads and reconciles a store directory's snapshot and journal.
// fingerprint is the caller's expected embedder binding ("" accepts any);
// mismatches between caller, snapshot and journal are errors. A stale
// journal (generation older than the snapshot — a crash between the
// compaction rename and the journal reset) is reported as !jnlOK, not
// replayed.
func loadDir(dir, fingerprint string) (*loadedDir, error) {
	ld := &loadedDir{fp: fingerprint}
	adopt := func(fp string) error {
		if fp == "" {
			return nil
		}
		if ld.fp == "" {
			ld.fp = fp
			return nil
		}
		if ld.fp != fp {
			have, want := IdentityDiff(fp, ld.fp)
			return fmt.Errorf("%w: store belongs to embedder %s, opened for %s — was the model refitted or the index reconfigured? re-embed into a fresh store directory", ErrInput, have, want)
		}
		return nil
	}

	snapPath := filepath.Join(dir, snapshotFile)
	if raw, err := os.ReadFile(snapPath); err == nil {
		gen, fp, dim, entries, err := decodeSnapshot(raw)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", snapPath, err)
		}
		if err := adopt(fp); err != nil {
			return nil, err
		}
		ld.gen, ld.dim, ld.snap = gen, dim, entries
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("catalog: reading snapshot: %w", err)
	}

	jnlPath := filepath.Join(dir, journalFile)
	if raw, err := os.ReadFile(jnlPath); err == nil {
		ld.jnlSeen = true
		ld.jnlLen = int64(len(raw))
		ops, gen, fp, goodLen, _, ver, err := replayJournal(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", jnlPath, err)
		}
		switch {
		case gen < ld.gen:
			// Stale journal from before the last compaction: everything in
			// it is already folded into the snapshot.
		case gen > ld.gen:
			return nil, fmt.Errorf("%w: journal generation %d ahead of snapshot %d", ErrFormat, gen, ld.gen)
		default:
			if err := adopt(fp); err != nil {
				return nil, err
			}
			ld.jnlOK = true
			ld.goodLen = goodLen
			ld.ops = ops
			ld.jnlVer = ver
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("catalog: reading journal: %w", err)
	}
	return ld, nil
}

// fold replays the loaded state into the store's live view, validating as
// a replay into an index would: snapshot entries are implicit adds.
func (s *Store) fold(ld *loadedDir) error {
	for _, e := range ld.snap {
		if err := s.applyLive(Op{Kind: OpAdd, Entry: e}); err != nil {
			return fmt.Errorf("%w: snapshot: %v", ErrFormat, err)
		}
	}
	for _, op := range ld.ops {
		if err := s.applyLive(op); err != nil {
			return fmt.Errorf("%w: journal replay: %v", ErrFormat, err)
		}
	}
	return nil
}

// Open opens (or creates) a store directory. fingerprint binds the store
// to one embedder: a non-empty value must match a non-empty recorded one,
// and is recorded on creation. A torn trailing journal record — the
// signature of a crash mid-append — is truncated away; any other
// corruption is an error. An exclusive lock file guards the directory: a
// second concurrent Open fails instead of interleaving appends (the lock
// is released by Close and by process exit).
func Open(dir, fingerprint string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("catalog: creating store dir: %w", err)
	}
	lock, err := acquireLock(dir)
	if err != nil {
		return nil, err
	}
	ld, err := loadDir(dir, fingerprint)
	if err != nil {
		releaseLock(lock)
		return nil, err
	}
	s := &Store{dir: dir, fp: ld.fp, gen: ld.gen, dim: ld.dim, snap: ld.snap,
		ops: ld.ops, lock: lock, live: make(map[Key]liveRec)}
	if s.fp == "" {
		s.fp = fingerprint
	}

	jnlPath := filepath.Join(dir, journalFile)
	switch {
	case !ld.jnlSeen || !ld.jnlOK:
		// Missing journal (fresh store) or stale one (pre-compaction
		// leftover): start a fresh journal at the snapshot generation.
		if err := writeJournalFile(jnlPath, ld.gen, s.fp); err != nil {
			releaseLock(lock)
			return nil, err
		}
		s.jsize = journalHeaderLen(s.fp)
	case ld.jnlVer < 2:
		// A previous-format journal: re-encode its intact ops at the
		// current version (atomic temp+rename, like a journal reset), so
		// appends never mix record formats in one file. A torn v1 tail is
		// dropped by the same rewrite.
		buf := appendJournalHeader(nil, ld.gen, s.fp)
		for _, op := range ld.ops {
			buf = appendRecord(buf, op)
		}
		if err := atomicWrite(jnlPath, buf); err != nil {
			releaseLock(lock)
			return nil, err
		}
		s.jsize = int64(len(buf))
	case ld.jnlLen > ld.goodLen:
		// Torn tail from a crash mid-append.
		if err := os.Truncate(jnlPath, ld.goodLen); err != nil {
			releaseLock(lock)
			return nil, fmt.Errorf("catalog: truncating torn journal tail: %w", err)
		}
		s.jsize = ld.goodLen
	default:
		s.jsize = ld.goodLen
	}

	if err := s.fold(ld); err != nil {
		releaseLock(lock)
		return nil, err
	}
	jf, err := os.OpenFile(jnlPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		releaseLock(lock)
		return nil, fmt.Errorf("catalog: opening journal for append: %w", err)
	}
	s.jf = jf
	return s, nil
}

// Read loads the live entries of a store directory without opening it for
// writing (nothing on disk is modified; a torn journal tail is simply
// skipped, a stale journal ignored). It returns the recorded fingerprint
// and the live entries in the order a replay into an index would assign
// ids.
func Read(dir string) (fingerprint string, live []Entry, err error) {
	ld, err := loadDir(dir, "")
	if err != nil {
		return "", nil, err
	}
	s := &Store{live: make(map[Key]liveRec)}
	if err := s.fold(ld); err != nil {
		return "", nil, err
	}
	return ld.fp, s.liveEntries(), nil
}

// applyLive validates one op against the live view and applies it. It is
// validate + the mutation, so Append-time rejection and replay-time
// rejection can never drift apart.
func (s *Store) applyLive(op Op) error {
	if err := s.validate(op); err != nil {
		return err
	}
	switch op.Kind {
	case OpAdd:
		if s.dim == 0 {
			s.dim = len(op.Entry.Vec)
		}
		s.live[op.Entry.Key] = liveRec{seq: s.nextSeq, e: op.Entry}
		s.nextSeq++
	case OpRemove:
		delete(s.live, op.Entry.Key)
	}
	return nil
}

// liveEntries returns the live entries ordered by add sequence.
func (s *Store) liveEntries() []Entry {
	recs := make([]liveRec, 0, len(s.live))
	for _, r := range s.live {
		recs = append(recs, r)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].seq < recs[j].seq })
	out := make([]Entry, len(recs))
	for i, r := range recs {
		out[i] = r.e
	}
	return out
}

// Fingerprint returns the embedder fingerprint the store is bound to.
func (s *Store) Fingerprint() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fp
}

// Dim returns the embedding dimensionality (0 while empty).
func (s *Store) Dim() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dim
}

// Len returns the number of live entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.live)
}

// Snapshot returns the entries of the last compaction, in id order.
// Callers must treat the result as immutable.
func (s *Store) Snapshot() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snap
}

// Ops returns the journal operations since the last compaction, in append
// order. Callers must treat the result as immutable.
func (s *Store) Ops() []Op {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ops
}

// Live returns the live entries in the order a replay into an index
// assigns ids — which is also the order Compact writes them.
func (s *Store) Live() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.liveEntries()
}

// PendingOps reports the journal shape since the last compaction.
func (s *Store) PendingOps() (adds, removes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, op := range s.ops {
		if op.Kind == OpAdd {
			adds++
		} else {
			removes++
		}
	}
	return adds, removes
}

// Append validates one op, journals it and applies it to the live view.
// The journal write hits the file before Append returns, so the op
// survives a process crash; an OS crash may still tear the final record,
// which the next Open truncates away. A failed write is quarantined: the
// journal is truncated back to its last intact prefix, and if even that
// fails the store is marked broken — nothing may ever append after torn
// bytes, where the next Open could not tell a crash from corruption.
func (s *Store) Append(op Op) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("%w: store is closed", ErrInput)
	}
	if s.broken {
		return fmt.Errorf("%w: store is broken after a failed journal write", ErrInput)
	}
	// Validate first so a rejected op mutates nothing on disk or in memory.
	if err := s.validate(op); err != nil {
		return fmt.Errorf("%w: %v", ErrInput, err)
	}
	rec := appendRecord(nil, op)
	if _, err := s.jf.Write(rec); err != nil {
		if terr := s.jf.Truncate(s.jsize); terr != nil {
			s.broken = true
			return fmt.Errorf("catalog: appending journal record: %w (and truncating the torn tail failed: %v — store disabled)", err, terr)
		}
		return fmt.Errorf("catalog: appending journal record: %w", err)
	}
	s.jsize += int64(len(rec))
	if err := s.applyLive(op); err != nil {
		return fmt.Errorf("%w: %v", ErrInput, err)
	}
	s.ops = append(s.ops, op)
	return nil
}

// validate checks one op against the live view without mutating state:
// structural limits (so the op can round-trip the journal encoding),
// finiteness, dimensionality, and key liveness.
func (s *Store) validate(op Op) error {
	switch op.Kind {
	case OpAdd:
		e := op.Entry
		if len(e.Vec) == 0 {
			return fmt.Errorf("add %q: empty vector", e.Name)
		}
		if len(e.Name) > maxJournalName {
			return fmt.Errorf("add: name of %d bytes exceeds limit", len(e.Name))
		}
		if len(e.Vec) > maxJournalDim {
			return fmt.Errorf("add %q: dim %d exceeds limit", e.Name, len(e.Vec))
		}
		for i, v := range e.Vec {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("add %q: component %d is not finite", e.Name, i)
			}
		}
		if s.dim != 0 && len(e.Vec) != s.dim {
			return fmt.Errorf("add %q: dim %d, store has %d", e.Name, len(e.Vec), s.dim)
		}
		if _, ok := s.live[e.Key]; ok {
			return fmt.Errorf("add %q: key %s already live", e.Name, e.Key)
		}
		return nil
	case OpRemove:
		if _, ok := s.live[op.Entry.Key]; !ok {
			return fmt.Errorf("remove: key %s not live", op.Entry.Key)
		}
		return nil
	default:
		return fmt.Errorf("unknown op kind %d", op.Kind)
	}
}

// Compact folds the journal into a fresh snapshot at the next generation
// and resets the journal. The live entries keep their replay order, so an
// index rebuilt from the survivors lines up id-for-id with the compacted
// snapshot.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("%w: store is closed", ErrInput)
	}
	if s.broken {
		return fmt.Errorf("%w: store is broken after a failed journal write", ErrInput)
	}
	live := s.liveEntries()
	newGen := s.gen + 1
	snapPath := filepath.Join(s.dir, snapshotFile)
	if err := atomicWrite(snapPath, encodeSnapshot(newGen, s.fp, s.dim, live)); err != nil {
		return err
	}
	// Reset the journal only after the snapshot rename: a crash in between
	// leaves a stale-generation journal that the next Open discards. The
	// reset itself is a temp-file + rename too, so a crash mid-reset
	// leaves either the stale journal or the fresh one — never a
	// truncated, unreadable file.
	if err := s.jf.Close(); err != nil {
		return fmt.Errorf("catalog: closing journal: %w", err)
	}
	jnlPath := filepath.Join(s.dir, journalFile)
	if err := writeJournalFile(jnlPath, newGen, s.fp); err != nil {
		return err
	}
	jf, err := os.OpenFile(jnlPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("catalog: reopening journal: %w", err)
	}
	s.jf = jf
	s.jsize = journalHeaderLen(s.fp)
	s.gen = newGen
	s.snap = live
	s.ops = nil
	// Re-sequence the live view to match the fresh snapshot order.
	s.live = make(map[Key]liveRec, len(live))
	s.nextSeq = 0
	for _, e := range live {
		s.live[e.Key] = liveRec{seq: s.nextSeq, e: e}
		s.nextSeq++
	}
	return nil
}

// Close flushes and closes the journal and releases the directory lock.
// The store rejects further mutations.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	defer releaseLock(s.lock)
	if err := s.jf.Sync(); err != nil {
		_ = s.jf.Close()
		return fmt.Errorf("catalog: syncing journal: %w", err)
	}
	if err := s.jf.Close(); err != nil {
		return fmt.Errorf("catalog: closing journal: %w", err)
	}
	return nil
}

// encodeSnapshot builds the snapshot file bytes.
func encodeSnapshot(generation uint64, fingerprint string, dim int, entries []Entry) []byte {
	body := make([]byte, 0, 64+len(entries)*(40+8*dim))
	body = binary.LittleEndian.AppendUint64(body, generation)
	body = binary.LittleEndian.AppendUint32(body, uint32(len(fingerprint)))
	body = append(body, fingerprint...)
	body = binary.LittleEndian.AppendUint32(body, uint32(dim))
	body = binary.LittleEndian.AppendUint32(body, uint32(len(entries)))
	for _, e := range entries {
		body = append(body, e.Key[:]...)
		body = binary.LittleEndian.AppendUint64(body, e.Seq)
		body = binary.LittleEndian.AppendUint32(body, uint32(len(e.Name)))
		body = append(body, e.Name...)
		for _, v := range e.Vec {
			body = binary.LittleEndian.AppendUint64(body, math.Float64bits(v))
		}
	}
	out := make([]byte, 0, len(snapshotMagic)+len(body)+4)
	out = append(out, snapshotMagic[:]...)
	out = append(out, body...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
}

// decodeSnapshot parses and validates snapshot file bytes.
func decodeSnapshot(raw []byte) (generation uint64, fingerprint string, dim int, entries []Entry, err error) {
	if len(raw) < len(snapshotMagic)+4 {
		return 0, "", 0, nil, fmt.Errorf("%w: snapshot of %d bytes", ErrFormat, len(raw))
	}
	version := 0
	switch {
	case bytes.Equal(raw[:len(snapshotMagic)], snapshotMagicV1[:]):
		version = 1
	case bytes.Equal(raw[:len(snapshotMagic)], snapshotMagic[:]):
		version = 2
	default:
		return 0, "", 0, nil, fmt.Errorf("%w: bad snapshot magic %q", ErrFormat, raw[:len(snapshotMagic)])
	}
	body := raw[len(snapshotMagic) : len(raw)-4]
	wantCRC := binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if crc32.ChecksumIEEE(body) != wantCRC {
		return 0, "", 0, nil, fmt.Errorf("%w: snapshot checksum mismatch", ErrFormat)
	}
	take := func(n int) ([]byte, error) {
		if len(body) < n {
			return nil, fmt.Errorf("%w: snapshot truncated", ErrFormat)
		}
		b := body[:n]
		body = body[n:]
		return b, nil
	}
	b, err := take(8 + 4)
	if err != nil {
		return 0, "", 0, nil, err
	}
	generation = binary.LittleEndian.Uint64(b)
	fpLen := binary.LittleEndian.Uint32(b[8:])
	if fpLen > maxJournalName {
		return 0, "", 0, nil, fmt.Errorf("%w: snapshot fingerprint length %d", ErrFormat, fpLen)
	}
	if b, err = take(int(fpLen)); err != nil {
		return 0, "", 0, nil, err
	}
	fingerprint = string(b)
	if b, err = take(4 + 4); err != nil {
		return 0, "", 0, nil, err
	}
	d := binary.LittleEndian.Uint32(b)
	count := binary.LittleEndian.Uint32(b[4:])
	if d > maxJournalDim {
		return 0, "", 0, nil, fmt.Errorf("%w: snapshot dim %d", ErrFormat, d)
	}
	if count > 0 && d == 0 {
		return 0, "", 0, nil, fmt.Errorf("%w: %d snapshot entries with dim 0", ErrFormat, count)
	}
	// Minimum bytes per entry: 32-byte key + (v2) 8-byte seq + 4-byte name
	// length + vector.
	entryMin := int64(36 + 8*d)
	if version >= 2 {
		entryMin += 8
	}
	if int64(count)*entryMin > int64(len(body)) {
		return 0, "", 0, nil, fmt.Errorf("%w: snapshot count %d exceeds payload", ErrFormat, count)
	}
	dim = int(d)
	entries = make([]Entry, 0, count)
	for i := uint32(0); i < count; i++ {
		var e Entry
		if b, err = take(32); err != nil {
			return 0, "", 0, nil, err
		}
		copy(e.Key[:], b)
		if version >= 2 {
			if b, err = take(8); err != nil {
				return 0, "", 0, nil, err
			}
			e.Seq = binary.LittleEndian.Uint64(b)
		}
		if b, err = take(4); err != nil {
			return 0, "", 0, nil, err
		}
		nameLen := binary.LittleEndian.Uint32(b)
		if nameLen > maxJournalName {
			return 0, "", 0, nil, fmt.Errorf("%w: snapshot entry %d name length %d", ErrFormat, i, nameLen)
		}
		if b, err = take(int(nameLen)); err != nil {
			return 0, "", 0, nil, err
		}
		e.Name = string(b)
		if b, err = take(8 * dim); err != nil {
			return 0, "", 0, nil, err
		}
		e.Vec = make([]float64, dim)
		for j := range e.Vec {
			v := math.Float64frombits(binary.LittleEndian.Uint64(b[8*j:]))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, "", 0, nil, fmt.Errorf("%w: snapshot entry %d component %d is not finite", ErrFormat, i, j)
			}
			e.Vec[j] = v
		}
		entries = append(entries, e)
	}
	if len(body) != 0 {
		return 0, "", 0, nil, fmt.Errorf("%w: %d trailing snapshot bytes", ErrFormat, len(body))
	}
	return generation, fingerprint, dim, entries, nil
}

// journalHeaderLen is the byte length of the header writeJournalFile
// produces — the initial intact-prefix length of a fresh journal.
func journalHeaderLen(fingerprint string) int64 {
	return int64(len(journalMagic)) + 12 + int64(len(fingerprint))
}

// writeJournalFile atomically replaces path with a journal holding only
// the header: temp file + fsync + rename, so a crash mid-reset leaves
// either the old journal or the fresh one, never a truncated file.
func writeJournalFile(path string, generation uint64, fingerprint string) error {
	return atomicWrite(path, appendJournalHeader(nil, generation, fingerprint))
}

// acquireLock takes the store directory's exclusive advisory lock. The
// lock is released by releaseLock and automatically by process exit, so a
// crashed server never blocks a restart.
func acquireLock(dir string) (*os.File, error) {
	path := filepath.Join(dir, "lock")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("catalog: opening lock file: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: store %s is locked by another process (%v)", ErrInput, dir, err)
	}
	return f, nil
}

// releaseLock drops the advisory lock (nil-safe for read-only stores).
func releaseLock(f *os.File) {
	if f == nil {
		return
	}
	_ = syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
	_ = f.Close()
}

// atomicWrite writes data to a temp file in the target's directory, syncs
// it, renames it over the target and syncs the directory. The directory
// sync is what orders consecutive atomicWrites durably: Compact renames
// the snapshot before resetting the journal, and a power loss must never
// persist the journal reset without the snapshot it depends on.
func atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("catalog: creating temp file: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { _ = os.Remove(tmpName) }
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		cleanup()
		return fmt.Errorf("catalog: writing %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		cleanup()
		return fmt.Errorf("catalog: syncing %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		cleanup()
		return fmt.Errorf("catalog: closing %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		cleanup()
		return fmt.Errorf("catalog: renaming %s: %w", path, err)
	}
	df, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("catalog: opening %s for sync: %w", dir, err)
	}
	serr := df.Sync()
	if cerr := df.Close(); serr == nil {
		serr = cerr
	}
	if serr != nil {
		return fmt.Errorf("catalog: syncing %s: %w", dir, serr)
	}
	return nil
}
