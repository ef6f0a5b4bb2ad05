package proto_test

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"leases/internal/client"
	"leases/internal/proto"
	"leases/internal/server"
)

// TestHelloIsIDAckIsBoot pins the handshake both ends speak: the real
// client's THello payload is exactly its length-prefixed ID, and the real
// server's THelloAck payload is exactly its boot ID.
func TestHelloIsIDAckIsBoot(t *testing.T) {
	var id proto.Enc
	id.Str("c1")

	// The client, against a scripted peer.
	near, far := net.Pipe()
	defer far.Close()
	dialed := make(chan *client.Cache, 1)
	go func() {
		c, err := client.NewFromConn(near, client.Config{ID: "c1"})
		if err != nil {
			t.Error(err)
		}
		dialed <- c
	}()
	hello, err := proto.ReadFrame(far)
	if err != nil || hello.Type != proto.THello || !bytes.Equal(hello.Payload, id.Bytes()) {
		t.Fatalf("client hello = %v %x, %v; want THello %x", hello.Type, hello.Payload, err, id.Bytes())
	}
	var boot proto.Enc
	boot.U64(7)
	if err := proto.WriteFrame(far, proto.Frame{Type: proto.THelloAck, ReqID: hello.ReqID, Payload: boot.Bytes()}); err != nil {
		t.Fatal(err)
	}
	c := <-dialed
	if c == nil {
		return
	}
	go io.Copy(io.Discard, far) // whatever Close sends
	defer c.Close()
	if got := c.ServerBoot(); got != 7 {
		t.Fatalf("client took boot %d from an ack of boot 7", got)
	}

	// The server, from a raw peer.
	srv := server.New(server.Config{Term: time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() { defer close(served); srv.Serve(ln) }()
	defer func() { srv.Stop(); <-served }()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := proto.WriteFrame(nc, proto.Frame{Type: proto.THello, ReqID: 1, Payload: id.Bytes()}); err != nil {
		t.Fatal(err)
	}
	ack, err := proto.ReadFrame(nc)
	if err != nil || ack.Type != proto.THelloAck || len(ack.Payload) != 8 {
		t.Fatalf("server ack = %v %x, %v; want THelloAck of 8 bytes", ack.Type, ack.Payload, err)
	}
	sc, err := client.Dial(ln.Addr().String(), client.Config{ID: "c2"})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if got := binary.LittleEndian.Uint64(ack.Payload); got != sc.ServerBoot() {
		t.Fatalf("ack carries %d, the server's boot is %d", got, sc.ServerBoot())
	}
}
