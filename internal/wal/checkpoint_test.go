package wal

import "testing"

func TestCheckpointMemStore(t *testing.T) {
	l := New(NewMemStore())
	for i := 0; i < 10; i++ {
		kind := "Old"
		if i >= 5 {
			kind = "New"
		}
		if _, err := l.Force(Record{Tx: "t", Kind: kind}); err != nil {
			t.Fatal(err)
		}
	}
	kept, dropped, err := l.Checkpoint(func(r Record) bool { return r.Kind == "New" })
	if err != nil {
		t.Fatal(err)
	}
	if kept != 5 || dropped != 5 {
		t.Fatalf("kept=%d dropped=%d", kept, dropped)
	}
	recs, _ := l.Records()
	if len(recs) != 5 {
		t.Fatalf("records after checkpoint = %d", len(recs))
	}
	for _, r := range recs {
		if r.Kind != "Old" && r.Kind != "New" {
			t.Fatalf("unexpected record %+v", r)
		}
		if r.Kind == "Old" {
			t.Fatalf("dropped record survived: %+v", r)
		}
	}
}

func TestCheckpointFlushesBufferFirst(t *testing.T) {
	l := New(NewMemStore())
	l.Append(Record{Tx: "t", Kind: "Buffered"})
	kept, _, err := l.Checkpoint(func(Record) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if kept != 1 {
		t.Fatalf("buffered record lost by checkpoint: kept=%d", kept)
	}
}

func TestCheckpointClosedLog(t *testing.T) {
	l := New(NewMemStore())
	l.Crash()
	if _, _, err := l.Checkpoint(func(Record) bool { return true }); err == nil {
		t.Fatal("checkpoint of crashed log succeeded")
	}
}
