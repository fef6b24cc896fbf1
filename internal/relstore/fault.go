package relstore

// Fault injection for the durable WAL.  A FaultHook installed with
// WithFaultHook is invoked at each FaultPoint on the durable write, sync and
// replay paths.  It exists for tests and crash harnesses only: a hook that
// panics simulates a process kill at exactly that point (the skyload -crash
// scenario), one that blocks parks the path there, and one that returns an
// error makes the operation fail.  A disk fault or a power loss is the file
// system's business, not a fault point's: tests model it with the in-memory
// disk under the log (memfs_test.go).  Production opens never install a hook,
// and with no hook every fault point is a nil-check.
//
// Placement discipline (also documented in PERFORMANCE.md): append-path hooks
// fire BEFORE the record enters the device buffer and the sync hook fires
// BEFORE buffered bytes reach the OS.  "Before" placement means a panic at
// the point proves the preceding records are recoverable and the current one
// is not — the property the kill/recover tests assert.
//
// Which goroutine: FPWALAppend always fires on the goroutine appending the
// record, with no device lock held.  FPWALSync fires on whichever goroutine
// runs the flush, holding the device's flush lock and not its append lock:
// the committer's own inside Commit (and inside a CommitStart that finds a
// checkpoint due), an appender's for a rotation's flush, and a flush
// goroutine's after CommitStart — whose panic is carried to
// PendingCommit.Wait and raised there, where the owner can recover it.  An
// error returned at FPWALSync fails the device for good, as a real fsync
// error does.

// FaultPoint identifies one instrumented point on the durability paths.
type FaultPoint int

const (
	// FPWALAppend fires at the top of every durable record append (insert,
	// insert-group, commit and rollback markers), before the record is
	// buffered.
	FPWALAppend FaultPoint = iota
	// FPWALSync fires before every fsync of the log, before the buffered
	// records it covers are written to the OS.
	FPWALSync
	// FPReplay fires once per record applied during Recover's replay pass.
	FPReplay
)

// String names the fault point.
func (p FaultPoint) String() string {
	switch p {
	case FPWALAppend:
		return "wal-append"
	case FPWALSync:
		return "wal-sync"
	case FPReplay:
		return "replay"
	default:
		return "fault-point-unknown"
	}
}

// FaultHook is invoked at each fault point.  Returning a non-nil error makes
// the operation fail as a device error would; panicking simulates a process
// kill at that point.
type FaultHook func(p FaultPoint) error

// WithFaultHook installs a fault-injection hook on the durable WAL paths.
// Test-only: it has no effect unless WithWALDir is also set.
func WithFaultHook(hook FaultHook) Option {
	return func(o *openConfig) { o.faultHook = hook }
}
