package main

import (
	"errors"
	"net"
	"runtime"
	"syscall"
	"unsafe"
)

// refuseNewConnections attaches a socket filter to ln that drops every
// pure SYN (SYN set, ACK clear) while letting every other segment through.
// Handshakes already under way complete and are accepted as usual; a new
// client's SYN goes unanswered until ln closes, after which its retry is
// refused. Accepted connections inherit the filter, which never matches
// their traffic.
func refuseNewConnections(ln net.Listener) error {
	tl, ok := ln.(*net.TCPListener)
	if !ok {
		return errors.ErrUnsupported
	}
	rc, err := tl.SyscallConn()
	if err != nil {
		return err
	}
	// Socket filters on TCP see the segment from its TCP header on; the
	// flags are byte 13.
	filter := []syscall.SockFilter{
		{Code: syscall.BPF_LD | syscall.BPF_B | syscall.BPF_ABS, K: 13},
		{Code: syscall.BPF_ALU | syscall.BPF_AND | syscall.BPF_K, K: 0x12}, // SYN|ACK
		{Code: syscall.BPF_JMP | syscall.BPF_JEQ | syscall.BPF_K, K: 0x02, Jt: 0, Jf: 1},
		{Code: syscall.BPF_RET | syscall.BPF_K, K: 0},          // drop
		{Code: syscall.BPF_RET | syscall.BPF_K, K: 0xffffffff}, // keep whole
	}
	prog := syscall.SockFprog{Len: uint16(len(filter)), Filter: &filter[0]}
	var serr error
	err = rc.Control(func(fd uintptr) {
		_, _, errno := syscall.Syscall6(syscall.SYS_SETSOCKOPT, fd,
			syscall.SOL_SOCKET, syscall.SO_ATTACH_FILTER,
			uintptr(unsafe.Pointer(&prog)), unsafe.Sizeof(prog), 0)
		if errno != 0 {
			serr = errno
		}
	})
	runtime.KeepAlive(filter)
	if err != nil {
		return err
	}
	return serr
}
