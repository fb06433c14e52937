package serve

import (
	"os"
	"path/filepath"
	"testing"
)

func TestLedgerAppendAndRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "ledger.jsonl")
	l := NewLedger(path)
	for i, outcome := range []string{"done", "failed"} {
		if err := l.Append(&LedgerRecord{Schema: LedgerSchemaVersion, ID: "j", Outcome: outcome}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	recs, skipped, err := ReadLedger(path)
	if err != nil || skipped != 0 {
		t.Fatalf("read: %v (skipped %d)", err, skipped)
	}
	if len(recs) != 2 || recs[0].Outcome != "done" || recs[1].Outcome != "failed" {
		t.Fatalf("records = %+v", recs)
	}
}

// TestLedgerRotationSafe: deleting the file between appends (log rotation)
// loses nothing from subsequent records — the next append recreates it.
func TestLedgerRotationSafe(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	l := NewLedger(path)
	if err := l.Append(&LedgerRecord{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(&LedgerRecord{ID: "b"}); err != nil {
		t.Fatalf("append after rotation: %v", err)
	}
	recs, _, err := ReadLedger(path)
	if err != nil || len(recs) != 1 || recs[0].ID != "b" {
		t.Fatalf("post-rotation records = %+v (err %v)", recs, err)
	}
}

// TestLedgerCorruptLineSkipped: a torn trailing line is skipped, not fatal.
func TestLedgerCorruptLineSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	l := NewLedger(path)
	if err := l.Append(&LedgerRecord{ID: "good"}); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"id":"torn`) //nolint:errcheck
	f.Close()
	recs, skipped, err := ReadLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != "good" || skipped != 1 {
		t.Fatalf("records = %+v, skipped %d", recs, skipped)
	}
}

func TestLedgerNilNoop(t *testing.T) {
	var l *Ledger
	if l.Path() != "" {
		t.Error("nil ledger path not empty")
	}
	if err := l.Append(&LedgerRecord{}); err != nil {
		t.Errorf("nil ledger append: %v", err)
	}
	if NewLedger("") != nil {
		t.Error(`NewLedger("") must return nil`)
	}
}
