//go:build linux && arm64

package transport

// sysRecvmmsg is the recvmmsg syscall number, which the stdlib syscall
// package does not export on this architecture (golang.org/x/sys/unix
// carries the same value).
const sysRecvmmsg = 243
