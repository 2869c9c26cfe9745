package diskstore

// Injected crash points. Each simulates kill -9 at a precise instant in
// the commit protocol: the store drops every byte not yet fsynced (the
// page cache a power cut would eat), closes its handles, and fails all
// further operations with ErrCrashed. Tests then Open the directory
// again and assert what recovery promises for that instant.

// CrashPoint names an instant to die at. The zero value never fires.
type CrashPoint int

const (
	// CrashNone disarms injection.
	CrashNone CrashPoint = iota
	// CrashMidSegmentAppend dies halfway through appending a shard body
	// to a segment, with the torn half made durable — the classic torn
	// write. No WAL record references it, so recovery must simply never
	// trust the bytes.
	CrashMidSegmentAppend
	// CrashBeforeWALSync dies during a commit point after the segments
	// are durable but before the WAL record is: half the record's frame
	// is made durable (a torn log tail), the rest is lost. Recovery must
	// truncate the tail and treat the operation as never having happened.
	CrashBeforeWALSync
	// CrashAfterWALSync dies after the commit record is fully durable but
	// before the in-memory index flip. The operation returns ErrCrashed
	// to its caller, yet recovery must find it committed — the WAL, not
	// the process's memory, is the truth.
	CrashAfterWALSync
)

// SetCrashPoint arms (or with CrashNone disarms) the next matching
// operation to crash the store.
func (s *Store) SetCrashPoint(p CrashPoint) {
	s.mu.Lock()
	s.crash = p
	s.mu.Unlock()
}

// dieMidAppend writes the first half of the segment record, makes the
// torn bytes durable, and crashes. Caller holds s.mu.
func (s *Store) dieMidAppend(af *appendFile, rec []byte) error {
	half := rec[:len(rec)/2]
	if len(half) > 0 {
		if _, err := af.append(half); err == nil {
			af.sync()
		}
	}
	return s.crashNow()
}

// dieBeforeWALSync writes half of the commit record's frame to the WAL,
// makes the torn tail durable, and crashes — the record itself never
// becomes durable. Caller holds s.mu.
func (s *Store) dieBeforeWALSync(rec []byte) error {
	half := rec[:len(rec)/2]
	if len(half) > 0 {
		if _, err := s.wal.append(half); err == nil {
			s.wal.sync()
		}
	}
	return s.crashNow()
}

// dieAfterWALSync makes the already-appended commit record durable for
// real, then crashes before the caller can flip its in-memory state.
// Caller holds s.mu.
func (s *Store) dieAfterWALSync() error {
	s.wal.sync()
	return s.crashNow()
}

// crashNow is the shared death: every file loses its un-fsynced suffix
// (the page cache at power cut), handles close, and the store is dead.
// Always returns ErrCrashed. Caller holds s.mu.
func (s *Store) crashNow() error {
	s.wal.truncate(s.wal.synced)
	for _, nd := range s.nodes {
		for _, af := range nd.segs {
			af.truncate(af.synced)
		}
	}
	s.closeFiles()
	s.dead = ErrCrashed
	s.crash = CrashNone
	return ErrCrashed
}
