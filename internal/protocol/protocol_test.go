package protocol

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := Packet{
		From: "A", To: "B",
		Messages: []Message{
			{Type: MsgVote, Tx: "A:1", Vote: VoteYes, Reliable: true, OKToLeaveOut: true},
			{Type: MsgAck, Tx: "A:0", Heuristics: []HeuristicReport{{Node: "C", Committed: true, Damage: true}}},
			{Type: MsgData, Tx: "A:1", Payload: []byte("hello"), NewTx: "A:2"},
		},
	}
	wire, err := NewBinaryCodec().AppendFrame(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewBinaryCodec().DecodeFrame(wire[4:])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, p)
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := NewBinaryCodec().DecodeFrame([]byte("not a binary frame")); err == nil {
		t.Fatal("decoding garbage succeeded")
	}
}

func TestMessageLabels(t *testing.T) {
	cases := []struct {
		msg  Message
		want string
	}{
		{Message{Type: MsgPrepare}, "Prepare"},
		{Message{Type: MsgPrepare, LongLocks: true}, "Prepare+LongLocks"},
		{Message{Type: MsgVote, Vote: VoteYes}, "VoteYes"},
		{Message{Type: MsgVote, Vote: VoteNo}, "VoteNo"},
		{Message{Type: MsgVote, Vote: VoteReadOnly}, "VoteReadOnly"},
		{Message{Type: MsgVote, Vote: VoteYes, Reliable: true}, "VoteYes+Reliable"},
		{Message{Type: MsgVote, Vote: VoteYes, LastAgent: true}, "VoteYes+LastAgent"},
		{Message{Type: MsgVote, Vote: VoteYes, Unsolicited: true}, "VoteYes+Unsolicited"},
		{Message{Type: MsgCommit}, "Commit"},
		{Message{Type: MsgAbort}, "Abort"},
		{Message{Type: MsgAck}, "Ack"},
		{Message{Type: MsgAck, RecoveryPending: true}, "Ack+RecoveryPending"},
		{Message{Type: MsgOutcome, Outcome: OutcomeAbort}, "OutcomeAbort"},
		{Message{Type: MsgData}, "Data"},
		{Message{Type: MsgData, NewTx: "A:2"}, "Data+NewTx"},
	}
	for _, c := range cases {
		if got := c.msg.Label(); got != c.want {
			t.Errorf("Label(%v) = %q, want %q", c.msg.Type, got, c.want)
		}
	}
}

func TestAckWithHeuristicsLabel(t *testing.T) {
	m := Message{Type: MsgAck, Heuristics: []HeuristicReport{{Node: "S"}}}
	if got := m.Label(); got != "Ack+Heuristics" {
		t.Fatalf("Label = %q", got)
	}
}

func TestPacketLabel(t *testing.T) {
	p := Packet{Messages: []Message{
		{Type: MsgData},
		{Type: MsgAck},
	}}
	if got := p.Label(); got != "Data|Ack" {
		t.Fatalf("packet label = %q", got)
	}
	if got := (Packet{}).Label(); !strings.Contains(got, "empty") {
		t.Fatalf("empty packet label = %q", got)
	}
}

func TestTypeAndVoteStrings(t *testing.T) {
	if MsgPrepare.String() != "Prepare" || MsgType(42).String() != "MsgType(42)" {
		t.Fatal("MsgType.String broken")
	}
	if VoteReadOnly.String() != "VoteReadOnly" || VoteValue(9).String() != "Vote(9)" {
		t.Fatal("VoteValue.String broken")
	}
	if OutcomeInProgress.String() != "InProgress" || OutcomeKind(7).String() != "Outcome(7)" {
		t.Fatal("OutcomeKind.String broken")
	}
}

// Property: every generated packet survives an encode/decode round trip.
func TestQuickPacketRoundTrip(t *testing.T) {
	enc, dec := NewBinaryCodec(), NewBinaryCodec()
	prop := func(from, to, tx string, typ uint8, payload []byte, flags uint8) bool {
		m := Message{
			Type:         MsgType(int(typ) % 8),
			Tx:           tx,
			Payload:      payload,
			LongLocks:    flags&1 != 0,
			Reliable:     flags&2 != 0,
			OKToLeaveOut: flags&4 != 0,
			Unsolicited:  flags&8 != 0,
			LastAgent:    flags&16 != 0,
			Vote:         VoteValue(int(flags) % 3),
		}
		p := Packet{From: from, To: to, Messages: []Message{m}}
		wire, err := enc.AppendFrame(nil, p)
		if err != nil {
			return false
		}
		got, err := dec.DecodeFrame(wire[4:])
		if err != nil {
			return false
		}
		// The wire format decodes an empty payload as nil; normalize.
		if len(p.Messages[0].Payload) == 0 {
			p.Messages[0].Payload = nil
			got.Messages[0].Payload = nil
		}
		return reflect.DeepEqual(p, got)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
