package main

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"ycsbt/internal/kvstore"
	"ycsbt/internal/workload"
)

// The output checks. Each recomputes what the store must hold from
// the workload's definition, reading the records straight from the
// engine, and shares no code with the program's own Tier 6 stage.

// checkStore runs the workload's store check after the timed phase.
// acked is the inserts the binding acknowledged during the run.
func (s *stack) checkStore(acked int64) error {
	records := s.props.GetInt64("recordcount", 0)
	table := s.props.GetString("table", "usertable")
	if s.spec.txn {
		cew, ok := s.w.(*workload.ClosedEconomyWorkload)
		if !ok {
			return fmt.Errorf("check: %s is not the closed economy workload", s.spec.name)
		}
		return checkCash(s.store, table, records+acked, s.props.GetInt64("totalcash", 0), cew.Pot())
	}
	return checkRecords(s.store, table, records+acked,
		s.props.GetInt("fieldcount", 10), s.props.GetInt("fieldlength", 100))
}

// checkCash sums every account's field0 balance. The sum plus the
// workload's escrow pot must equal totalcash, the account count must
// equal wantKeys, and no record may be left in a prepared state.
func checkCash(eng kvstore.Engine, table string, wantKeys, totalCash, pot int64) error {
	var sum, keys int64
	var bad error
	err := eng.ForEach(table, func(key string, rec *kvstore.VersionedRecord) bool {
		keys++
		for f := range rec.Fields {
			if strings.HasPrefix(f, "_txn:") {
				bad = fmt.Errorf("check: account %s is left prepared (field %s)", key, f)
				return false
			}
		}
		bal, err := strconv.ParseInt(string(rec.Fields["field0"]), 10, 64)
		if err != nil {
			bad = fmt.Errorf("check: account %s balance %q: %v", key, rec.Fields["field0"], err)
			return false
		}
		sum += bal
		return true
	})
	if err != nil {
		return fmt.Errorf("check: reading %s: %w", table, err)
	}
	if bad != nil {
		return bad
	}
	if keys != wantKeys {
		return fmt.Errorf("check: %d accounts stored, want %d", keys, wantKeys)
	}
	if sum+pot != totalCash {
		return fmt.Errorf("check: balances %d + pot %d = %d, want totalcash %d", sum, pot, sum+pot, totalCash)
	}
	return nil
}

// checkRecords verifies that every stored record has exactly
// fieldcount fields field0..field<n-1>, each holding the bytes
// expectedValue derives from the key and field name, and that the
// table holds wantKeys keys.
func checkRecords(eng kvstore.Engine, table string, wantKeys int64, fieldCount, fieldLength int) error {
	var keys int64
	var bad error
	err := eng.ForEach(table, func(key string, rec *kvstore.VersionedRecord) bool {
		keys++
		if len(rec.Fields) != fieldCount {
			bad = fmt.Errorf("check: record %s has %d fields, want %d", key, len(rec.Fields), fieldCount)
			return false
		}
		for i := 0; i < fieldCount; i++ {
			f := "field" + strconv.Itoa(i)
			if got, want := rec.Fields[f], expectedValue(key, f, fieldLength); string(got) != string(want) {
				bad = fmt.Errorf("check: record %s %s holds %q, want %q", key, f, got, want)
				return false
			}
		}
		return true
	})
	if err != nil {
		return fmt.Errorf("check: reading %s: %w", table, err)
	}
	if bad != nil {
		return bad
	}
	if keys != wantKeys {
		return fmt.Errorf("check: %d records stored, want %d (loaded + acknowledged inserts)", keys, wantKeys)
	}
	return nil
}

// expectedValue is the value the core workload's dataintegrity mode
// defines for a field: 64-bit FNV-1a over the key then the field name
// seeds a generator h ← h·p + i (p the FNV prime, i the byte index),
// and byte i is the alphabet letter at h mod 62.
func expectedValue(key, field string, n int) []byte {
	const (
		alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
		offset   = 14695981039346656037
		prime    = 1099511628211
	)
	h := uint64(offset)
	for _, s := range [2]string{key, field} {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime
		}
	}
	out := make([]byte, n)
	for i := range out {
		h = h*prime + uint64(i)
		out[i] = alphabet[h%uint64(len(alphabet))]
	}
	return out
}

// checkProgram runs the program's own Tier 6 stage as well; it must
// agree with the checks above.
func (s *stack) checkProgram(ctx context.Context) error {
	v, err := s.w.Validate(ctx, s.binding)
	if err != nil {
		return fmt.Errorf("check: program validation: %w", err)
	}
	if !v.Valid {
		return fmt.Errorf("check: program validation failed: %s", v.Detail)
	}
	return nil
}
