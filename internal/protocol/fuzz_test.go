package protocol

import (
	"encoding/binary"
	"reflect"
	"testing"
)

// cutFrame takes one length-prefixed frame off the front of data, as a
// transport's read loop would. A prefix that is short or claims more
// than remains yields whatever is left as the frame, so every input
// reaches the decoder.
func cutFrame(data []byte) (frame, rest []byte) {
	if len(data) < 4 {
		return data, nil
	}
	n := binary.BigEndian.Uint32(data)
	data = data[4:]
	if uint64(n) > uint64(len(data)) {
		return data, nil
	}
	return data[:n], data[n:]
}

// FuzzDecode feeds arbitrary bytes to the decoder that reads every TCP
// frame. One codec decodes two frames cut from the input in turn, so
// per-connection state (the intern table) carries from one frame into
// the next exactly as on a live connection. Decoding must never panic
// — a corrupted frame must condemn its connection, not the process —
// and any frame that decodes must re-encode and decode to an equal
// packet.
func FuzzDecode(f *testing.F) {
	enc := NewBinaryCodec()
	good, _ := enc.AppendFrame(nil, Packet{From: "A", To: "B", Messages: []Message{{Type: MsgPrepare, Tx: "A:1"}}})
	good, _ = enc.AppendFrame(good, fullPacket())
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	f.Add([]byte{0xff, 0x00, 0x13, 0x37})
	f.Add(good[:len(good)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewBinaryCodec()
		first, rest := cutFrame(data)
		second, _ := cutFrame(rest)
		for i, frame := range [][]byte{first, second} {
			pkt, err := dec.DecodeFrame(frame) // must not panic
			if err != nil {
				continue
			}
			wire, err := NewBinaryCodec().AppendFrame(nil, pkt)
			if err != nil {
				t.Fatalf("frame %d: decoded packet failed to re-encode: %v", i, err)
			}
			again, err := NewBinaryCodec().DecodeFrame(wire[4:])
			if err != nil {
				t.Fatalf("frame %d: re-encoded packet failed to decode: %v", i, err)
			}
			if !reflect.DeepEqual(again, pkt) {
				t.Fatalf("frame %d: re-encode drift:\n got %+v\nwant %+v", i, again, pkt)
			}
		}
	})
}

// FuzzBinaryRoundTrip is the property test for the wire format: every
// generated packet must decode to exactly the packet that was encoded.
// Generated packets use nil, never empty, for absent payloads and
// heuristics, because the format decodes both to nil (see
// TestBinaryCodecDecodesEmptyAsZero).
func FuzzBinaryRoundTrip(f *testing.F) {
	// One seed per message type, plus empty-payload and heuristic
	// variants — the corners where explicit field encoding is most
	// likely to drift.
	for mt := MsgData; mt <= MsgOutcome; mt++ {
		f.Add("C", "S1", "C:1", "", uint8(mt), uint8(1), uint8(0), uint8(0), uint8(0), []byte(nil), "", uint8(0))
	}
	f.Add("C", "S1", "C:2", "C:3", uint8(MsgData), uint8(0), uint8(0), uint8(0), uint8(0xff), []byte{}, "", uint8(0))
	f.Add("C", "S1", "C:4", "", uint8(MsgAck), uint8(2), uint8(2), uint8(3), uint8(0x40), []byte{0, 1, 0xff}, "S2", uint8(3))
	f.Add("", "", "", "", uint8(MsgVote), uint8(3), uint8(1), uint8(1), uint8(0xaa), []byte(nil), "node-with-a-long-name", uint8(1))
	// The one-phase vote: Presume1PC with an opc1 redo payload riding
	// the Payload field — the fast path's whole durability story on
	// the wire.
	onePhase := OnePhaseMeta{Subs: []string{"S1", "S2"}, Redos: [][]byte{{0x01}, nil}}.Encode()
	f.Add("S1", "C", "C:5", "", uint8(MsgVote), uint8(Presume1PC), uint8(VoteYes), uint8(0), uint8(16), onePhase, "", uint8(0))

	bin := NewBinaryCodec()
	f.Fuzz(func(t *testing.T, from, to, tx, newTx string,
		typ, presume, vote, outcome, flags uint8, payload []byte, hNode string, hFlags uint8) {
		m := Message{
			Type:            MsgType(typ) % (MsgOutcome + 1),
			Tx:              tx,
			LongLocks:       flags&1 != 0,
			Presume:         Presumption(presume) % (Presume1PC + 1),
			Delegate:        flags&2 != 0,
			Vote:            VoteValue(vote) % (VoteReadOnly + 1),
			Reliable:        flags&4 != 0,
			OKToLeaveOut:    flags&8 != 0,
			Unsolicited:     flags&16 != 0,
			LastAgent:       flags&32 != 0,
			RecoveryPending: flags&64 != 0,
			Outcome:         OutcomeKind(outcome) % (OutcomeInProgress + 1),
			NewTx:           newTx,
		}
		if len(payload) > 0 {
			m.Payload = payload
		}
		if hNode != "" || hFlags != 0 {
			m.Heuristics = []HeuristicReport{
				{Node: hNode, Committed: hFlags&1 != 0, Damage: hFlags&2 != 0},
			}
		}
		// Two messages per packet so framing state (counts, offsets) is
		// exercised, with the second message a mutation of the first.
		m2 := m
		m2.Type = (m.Type + 1) % (MsgOutcome + 1)
		m2.Tx = tx + "'"
		m2.Heuristics = nil
		m2.Payload = nil
		want := Packet{From: from, To: to, Messages: []Message{m, m2}}

		frame, err := bin.AppendFrame(nil, want)
		if err != nil {
			t.Fatalf("binary encode: %v", err)
		}
		got, err := bin.DecodeFrame(frame[4:]) // strip length prefix
		if err != nil {
			t.Fatalf("binary decode: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("binary round-trip drift:\n got %+v\nwant %+v", got, want)
		}
	})
}
