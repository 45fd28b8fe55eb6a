//go:build unix

package transport

import "syscall"

// msgTrunc is the recvmsg flag that says a datagram was longer than the
// buffer it was read into.
const msgTrunc = syscall.MSG_TRUNC
