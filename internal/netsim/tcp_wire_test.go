package netsim

import (
	"encoding/binary"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/protocol"
)

// rawDial opens a plain TCP connection to the endpoint and writes the
// given bytes, returning the connection.
func rawDial(t *testing.T, e *TCPEndpoint, b []byte) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", e.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(b); err != nil {
		t.Fatal(err)
	}
	return conn
}

// waitClosed asserts the peer closes the connection (read returns an
// error) within the deadline — i.e. the connection was condemned.
func waitClosed(t *testing.T, conn net.Conn) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var one [1]byte
	if _, err := conn.Read(one[:]); err == nil {
		t.Fatal("connection still open, want condemned")
	}
}

// goldenWire is a dialer's opening bytes for one packet, spelled out
// by hand: the preamble 'B', a 4-byte big-endian length, then a
// version-1 binary frame. Endpoints already deployed send exactly
// these bytes, so a new endpoint must keep accepting them.
var goldenWire = []byte{
	'B',                    // preamble
	0x00, 0x00, 0x00, 0x20, // frame length: 32 bytes
	0x01,      // format version
	0x01, 'A', // From
	0x01, 'E', // To
	0x02, // two messages
	// Prepare, flags=LongLocks, Presume=PA, Vote=0, Outcome=0
	0x01, 0x01, 0x01, 0x00, 0x00,
	0x03, 'A', ':', '7', // Tx
	0x00, // NewTx
	0x00, // Payload
	0x00, // heuristics
	// Data, no flags or enums
	0x00, 0x00, 0x00, 0x00, 0x00,
	0x03, 'A', ':', '7', // Tx
	0x00,             // NewTx
	0x02, 0xca, 0xfe, // Payload
	0x00, // heuristics
}

// goldenPacket is what goldenWire carries.
func goldenPacket() protocol.Packet {
	return protocol.Packet{From: "A", To: "E", Messages: []protocol.Message{
		{Type: protocol.MsgPrepare, Tx: "A:7", Presume: protocol.PresumeAbort, LongLocks: true},
		{Type: protocol.MsgData, Tx: "A:7", Payload: []byte{0xca, 0xfe}},
	}}
}

// TestTCPAcceptsDeployedWireBytes proves wire compatibility: the raw
// bytes a deployed dialer writes decode to the packet it sent, and the
// current encoder still produces exactly those bytes.
func TestTCPAcceptsDeployedWireBytes(t *testing.T) {
	e, err := ListenTCP("E", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	conn := rawDial(t, e, goldenWire)
	defer conn.Close()
	got := recvOne(t, e)
	if want := goldenPacket(); got.From != want.From || got.To != want.To ||
		!reflect.DeepEqual(got.Messages, want.Messages) {
		t.Fatalf("golden wire decoded to %+v, want %+v", got, want)
	}

	enc, err := protocol.NewBinaryCodec().AppendFrame([]byte{protocol.Preamble}, goldenPacket())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(enc, goldenWire) {
		t.Fatalf("encoder drifted from the deployed wire bytes:\n got % x\nwant % x", enc, goldenWire)
	}
}

// A corrupt frame must condemn only that connection — without
// panicking — and leave the endpoint serving fresh connections.
func TestTCPCorruptFrameCondemnsConnection(t *testing.T) {
	// The subtest is named for the wire codec it runs on.
	t.Run("binary", func(t *testing.T) {
		e, err := ListenTCP("E", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		// Valid preamble + length prefix, garbage payload.
		wire := []byte{protocol.Preamble, 0, 0, 0, 4, 0xde, 0xad, 0xbe, 0xef}
		conn := rawDial(t, e, wire)
		defer conn.Close()
		waitClosed(t, conn)

		// The endpoint must still accept and serve a healthy peer.
		h, err := ListenTCP("H", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		h.Register("E", e.Addr())
		if err := h.Send("E", pkt("H", "E", "ok")); err != nil {
			t.Fatal(err)
		}
		if got := recvOne(t, e); got.Messages[0].Tx != "ok" {
			t.Fatalf("got %+v", got)
		}
	})
}

// A truncated frame header (connection dies mid-prefix) must condemn
// the connection without delivering anything or panicking.
func TestTCPTruncatedHeaderCondemnsConnection(t *testing.T) {
	e, err := ListenTCP("E", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	conn := rawDial(t, e, []byte{protocol.Preamble, 0, 0}) // half a length prefix
	conn.Close()
	select {
	case p := <-e.Recv():
		t.Fatalf("unexpected packet %+v", p)
	case <-time.After(100 * time.Millisecond):
	}
}

// Any first byte other than the preamble condemns the connection
// before a frame is interpreted — including 'S' and 'P', which once
// announced the retired gob codecs — even when a valid frame follows.
func TestTCPUnknownPreambleCondemnsConnection(t *testing.T) {
	e, err := ListenTCP("E", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, first := range []byte{0x00, 'S', 'P', 'b', 0xff} {
		wire := append([]byte{first}, goldenWire[1:]...)
		conn := rawDial(t, e, wire)
		waitClosed(t, conn)
		conn.Close()
	}
	select {
	case p := <-e.Recv():
		t.Fatalf("delivered %+v from a connection with a foreign preamble", p)
	default:
	}
}

// A length prefix past maxFrame is refused rather than allocated.
func TestTCPOversizedFrameCondemnsConnection(t *testing.T) {
	e, err := ListenTCP("E", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrame+1)
	conn := rawDial(t, e, append([]byte{protocol.Preamble}, hdr[:]...))
	defer conn.Close()
	waitClosed(t, conn)
}
