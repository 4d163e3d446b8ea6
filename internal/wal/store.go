package wal

import "sync"

// MemStore is an in-memory Store. It models a disk: records appended
// but not yet synced live in a volatile tail that a simulated crash
// (DropUnsynced) can discard; synced records are durable.
type MemStore struct {
	mu       sync.Mutex
	durable  []Record
	volatile []Record
	syncs    int
	failNext error // injected fault for the next operation
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// FailNext arranges for the next Append or Sync to return err once.
// Tests use it to exercise error paths.
func (s *MemStore) FailNext(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failNext = err
}

func (s *MemStore) takeFault() error {
	err := s.failNext
	s.failNext = nil
	return err
}

// Append buffers rec in the volatile tail.
func (s *MemStore) Append(rec Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.takeFault(); err != nil {
		return err
	}
	s.volatile = append(s.volatile, rec)
	return nil
}

// Sync hardens the volatile tail.
func (s *MemStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.takeFault(); err != nil {
		return err
	}
	s.durable = append(s.durable, s.volatile...)
	s.volatile = nil
	s.syncs++
	return nil
}

// Records returns the durable records only.
func (s *MemStore) Records() ([]Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, len(s.durable))
	copy(out, s.durable)
	return out, nil
}

// Syncs reports the number of physical syncs performed.
func (s *MemStore) Syncs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncs
}

// DropUnsynced simulates a device-level crash, discarding the
// volatile tail. It returns how many records were lost.
func (s *MemStore) DropUnsynced() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.volatile)
	s.volatile = nil
	return n
}
