package relstore

import (
	"fmt"
	"sync"
)

// LockManager admits transactions: it enforces the concurrent-transaction
// limit (the Oracle interested-transaction-list analogue).  The lock waits
// and stalls the paper observed at 6-8 parallel loaders (§5.4) are modelled
// by the sqlbatch server from its own transaction slots, not here.
//
// The manager is safe for concurrent callers: all state is guarded by one
// mutex, and AdmitWait provides real blocking admission for the wall-clock
// execution mode (under the DES kernel's single-runner discipline the mutex
// is uncontended and Admit never needs to block — the sqlbatch server queues
// on the transaction-slot resource instead).
type LockManager struct {
	mu       sync.Mutex
	slotFree *sync.Cond

	maxConcurrentTxns int
	active            map[int64]struct{}

	admissionFull int64
}

// NewLockManager creates a lock manager that admits at most maxConcurrentTxns
// simultaneously active transactions (0 or negative means unlimited).
func NewLockManager(maxConcurrentTxns int) *LockManager {
	m := &LockManager{
		maxConcurrentTxns: maxConcurrentTxns,
		active:            make(map[int64]struct{}),
	}
	m.slotFree = sync.NewCond(&m.mu)
	return m
}

// MaxConcurrentTxns returns the admission limit (0 = unlimited).
func (m *LockManager) MaxConcurrentTxns() int { return m.maxConcurrentTxns }

// ActiveTxns returns the number of currently admitted transactions.
func (m *LockManager) ActiveTxns() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.active)
}

// full reports whether the admission limit is reached; m.mu must be held.
func (m *LockManager) full() bool {
	return m.maxConcurrentTxns > 0 && len(m.active) >= m.maxConcurrentTxns
}

// admitLocked registers txnID; m.mu must be held and the manager not full.
func (m *LockManager) admitLocked(txnID int64) error {
	if _, ok := m.active[txnID]; ok {
		return fmt.Errorf("relstore: transaction %d already admitted", txnID)
	}
	m.active[txnID] = struct{}{}
	return nil
}

// Admit registers a transaction.  It returns ErrTooManyTransactions when the
// concurrent transaction limit is reached; callers (the sqlbatch server)
// translate that into a queued wait.
func (m *LockManager) Admit(txnID int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.full() {
		m.admissionFull++
		return ErrTooManyTransactions
	}
	return m.admitLocked(txnID)
}

// AdmitWait registers a transaction, blocking the calling goroutine while the
// concurrent-transaction limit is reached.  Each blocked call counts once
// toward the admission-full counter.  It is the admission path of the
// wall-clock execution mode; DES processes must use Admit.
func (m *LockManager) AdmitWait(txnID int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.full() {
		m.admissionFull++
		for m.full() {
			m.slotFree.Wait()
		}
	}
	return m.admitLocked(txnID)
}

// ReleaseAll removes txnID from the active set and wakes goroutines blocked
// in AdmitWait.  Releasing an unknown transaction is a no-op.
func (m *LockManager) ReleaseAll(txnID int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.active[txnID]; !ok {
		return
	}
	delete(m.active, txnID)
	m.slotFree.Broadcast()
}

// LockStats is a snapshot of lock-manager counters.
type LockStats struct {
	ActiveTxns     int
	AdmissionFull  int64
	MaxConcurrency int
}

// Stats returns a snapshot of the lock-manager counters.
func (m *LockManager) Stats() LockStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return LockStats{
		ActiveTxns:     len(m.active),
		AdmissionFull:  m.admissionFull,
		MaxConcurrency: m.maxConcurrentTxns,
	}
}
