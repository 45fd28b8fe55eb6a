//go:build !unix

package transport

// msgTrunc is 0 where recvmsg has no truncation flag: Windows fails
// the read of an oversized datagram instead (WSAEMSGSIZE), and the read
// loops drop it as a transient error.
const msgTrunc = 0
