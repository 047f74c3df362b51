package main

import (
	"net"
	"sync/atomic"
)

// countingListener wraps the server's loopback listener and counts the
// bytes its accepted connections carry in each direction: in is what
// clients sent (requests), out is what the server wrote (replies).
type countingListener struct {
	net.Listener
	conns   atomic.Int64
	in, out atomic.Int64
}

// bytes returns the bytes carried so far, both directions.
func (l *countingListener) bytes() int64 { return l.in.Load() + l.out.Load() }

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.conns.Add(1)
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.l.out.Add(int64(n))
	return n, err
}
