package main

import (
	"io"
	"net"
	"testing"
)

func TestCountingListenerCountsBothDirections(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := &countingListener{Listener: ln}
	defer l.Close()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	request, reply := make([]byte, 100), make([]byte, 37)
	if _, err := client.Write(request); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(server, request); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Write(reply); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(client, reply); err != nil {
		t.Fatal(err)
	}
	if in, out, conns := l.in.Load(), l.out.Load(), l.conns.Load(); in != 100 || out != 37 || conns != 1 {
		t.Errorf("in %d, out %d, conns %d; want 100, 37, 1", in, out, conns)
	}
}
