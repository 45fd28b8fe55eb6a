package transport

import "testing"

// benchPayload is a G.711 RTP frame's wire size (12-byte header +
// 160-byte payload) — the datagram the relay moves all day.
const benchPayload = 172

// BenchmarkUDPTransportSend measures the unbatched send hot path:
// cached-destination WriteToUDPAddrPort, one syscall per datagram.
// Must stay 0 allocs/op.
func BenchmarkUDPTransportSend(b *testing.B) {
	b.ReportAllocs()
	a, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	sink, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer sink.Close()
	dst := sink.LocalAddr()
	payload := make([]byte, benchPayload)
	a.Send(dst, payload) // prime the addr cache

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Send(dst, payload)
	}
	b.StopTimer()
	b.ReportMetric(1, "events/run")
}

// BenchmarkUDPTransportPipe measures delivered wire throughput
// between two transports on loopback: bursts of 32 datagrams, each
// burst fully drained by the receiver's read loop before the next is
// offered (so socket buffers never overflow and every datagram is
// accounted). ns/op is per delivered datagram; the batched/fallback
// pair quantifies the recvmmsg win.
func BenchmarkUDPTransportPipe(b *testing.B) {
	for name, cfg := range udpVariants() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			tx, err := ListenUDPConfig("127.0.0.1:0", cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer tx.Close()
			rx, err := ListenUDPConfig("127.0.0.1:0", cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer rx.Close()

			// One token per delivered datagram. Blocking on the
			// channel parks the sender so the scheduler netpolls the
			// read loop immediately — a spin-wait here would leave the
			// reader to sysmon's 10ms poll and measure nothing.
			tokens := make(chan struct{}, 2*DefaultBatch)
			rx.SetReceiver(func(string, []byte) { tokens <- struct{}{} })
			dst := rx.LocalAddr()
			payload := make([]byte, benchPayload)
			tx.Send(dst, payload)
			drain(b, tokens, 1)

			const burst = DefaultBatch
			b.ResetTimer()
			for done := 0; done < b.N; {
				n := burst
				if rem := b.N - done; rem < n {
					n = rem
				}
				for i := 0; i < n; i++ {
					tx.Send(dst, payload)
				}
				drain(b, tokens, n)
				done += n
			}
			b.StopTimer()
			b.ReportMetric(1, "events/run")
		})
	}
}

// drain blocks until n delivery tokens arrive. A plain receive (no
// select/timeout) keeps the accounting loop alloc-free; the test
// binary's own -timeout backstops a lost datagram.
func drain(b *testing.B, tokens <-chan struct{}, n int) {
	for i := 0; i < n; i++ {
		<-tokens
	}
}
