package main

import (
	"fmt"
	"time"

	"repro/internal/wal"
)

// drainAudit waits until every member's cost ledger has closed and its
// accumulated conformance audit is exact with no violation.
func drainAudit(f *fleet) error {
	for i, s := range f.members {
		deadline := time.Now().Add(10 * time.Second)
		for {
			if rep := s.AuditNow(); !rep.OK() {
				return fmt.Errorf("%s: audit violation: %s", memberNames[i], rep)
			}
			acc, _ := s.AuditReport()
			if !acc.OK() {
				return fmt.Errorf("%s: audit violation: %s", memberNames[i], acc)
			}
			if s.Registry().CostLedgerSize() == 0 && acc.Exact == acc.Checked && acc.Checked > 0 {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s: ledger still open (%d entries) or audit inexact: %s",
					memberNames[i], s.Registry().CostLedgerSize(), acc)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// checkValues checks that every committed value in every member's
// store, and every value a committed transaction read, is a preloaded
// value or was written by a transaction the client saw commit.
func checkValues(f *fleet, done []txRecord) error {
	wrote := make(map[string]map[string]bool, len(done)) // tx -> keys it put
	for _, r := range done {
		keys := make(map[string]bool, len(r.puts))
		for _, k := range r.puts {
			keys[k] = true
		}
		wrote[r.tx] = keys
	}
	valid := func(key, val string) bool {
		return val == preloadValue(key) || wrote[val][key]
	}
	for i, s := range f.members {
		st := s.Store()
		for _, k := range st.Keys() {
			if v, _ := st.ReadCommitted(k); !valid(k, v) {
				return fmt.Errorf("%s: key %s holds %q, which no committed transaction wrote", memberNames[i], k, v)
			}
		}
	}
	for _, r := range done {
		for k, v := range r.reads {
			if !valid(k, v) {
				return fmt.Errorf("tx %s read %s = %q, which is neither preloaded nor committed", r.tx, k, v)
			}
		}
	}
	return nil
}

// checkDurable reopens each member's closed WAL directory and checks
// that the coordinator that answered every committed writing
// transaction holds its Committed record.
func checkDurable(f *fleet, done []txRecord) error {
	logged := make(map[string]map[string]bool, len(f.dirs))
	for i, dir := range f.dirs {
		st, err := wal.OpenSegmentStore(dir)
		if err != nil {
			return fmt.Errorf("%s: reopen wal: %w", memberNames[i], err)
		}
		recs, err := st.Records()
		cerr := st.Close()
		if err != nil {
			return fmt.Errorf("%s: scan wal: %w", memberNames[i], err)
		}
		if cerr != nil {
			return fmt.Errorf("%s: close reopened wal: %w", memberNames[i], cerr)
		}
		set := make(map[string]bool)
		for _, rec := range recs {
			if rec.Kind == "Committed" {
				set[rec.Tx] = true
			}
		}
		logged[memberNames[i]] = set
	}
	for _, r := range done {
		if len(r.puts) > 0 && !logged[r.coord][r.tx] {
			return fmt.Errorf("tx %s committed at %s but its Committed record is not in that member's wal", r.tx, r.coord)
		}
	}
	return nil
}
