#!/bin/sh
# wire-profile.sh <workload> [cpu|heap] — `make wire-profile W=<workload>
# [KIND=heap]`.
#
# Runs one untraced benchmark workload and pulls a profile from the
# child pbxd, writes it to benchmark/out/profile-<workload>.pprof (cpu)
# or heap-<workload>.pprof (heap) and prints its top.
#
#   cpu (the default)  a CPU profile taken while the workload's saturated
#                      phase is on (wire_calls: the closed loop, phase B;
#                      wire_register: the closed loop, phase C;
#                      wire_media: the media window), printed cumulative.
#   heap               the live heap, after a GC, at the point where the
#                      benchmark reads maxrss_mb (wire_calls: the end of
#                      the open loop, phase A; wire_register: the end of
#                      the open-loop refreshes, phase B; wire_media: the
#                      end of the media window), printed by in-use bytes.
#
# A reading aid for perf work, not a gate: nothing fails on what it shows.
set -eu

W=${1:?usage: wire-profile.sh wire_calls|wire_register|wire_media [cpu|heap]}
KIND=${2:-cpu}
# Seconds from the serving pbxd's start to the saturated phase, and how
# long to sample inside it; and seconds to the memory reading. All at
# the benchmark's default -seconds 20.
case $W in
wire_calls)    at=14 secs=5 heap_at=13 ;;  # open loop 13.3 s, then 6.7 s closed
wire_register) at=10 secs=9 heap_at=8 ;;   # phases A and B 4 s each, then 12 s closed
wire_media)    at=19 secs=15 heap_at=34 ;; # 60 calls ramped at 4/s, then the 20 s window
*) echo "wire-profile: no child pbxd to profile in workload '$W'" >&2; exit 2 ;;
esac
case $KIND in
cpu)  path="profile?seconds=$secs" top="-top -cum" name=profile ;;
heap) path="heap?gc=1" top="-sample_index=inuse_space -top" name=heap at=$heap_at ;;
*) echo "wire-profile: KIND is cpu or heap, not '$KIND'" >&2; exit 2 ;;
esac
GO=${GO:-go}
out=benchmark/out/$name-$W.pprof
mkdir -p benchmark/out

$GO run ./benchmark -workload "$W" -trace 0 >benchmark/out/profile-$W.log 2>&1 &
bench=$!
trap 'kill $bench 2>/dev/null || true' EXIT INT TERM

# The benchmark sets pbxd up five times for setup_s; the one that serves
# the workload is the first to live longer than a set-up takes (0.2 s):
# the same pid at six looks in a row, 1.5 s.
pid='' seen=0 settled=6
while kill -0 $bench 2>/dev/null; do
	cur=$(pgrep -n -f "$PWD/benchmark/out/pbxd" || true)
	if [ -n "$cur" ] && [ "$cur" = "$pid" ]; then
		seen=$((seen + 1))
		[ $seen -ge $settled ] && break
	else
		pid=$cur seen=0
	fi
	sleep 0.25
done
if [ $seen -lt $settled ]; then
	cat benchmark/out/profile-$W.log >&2
	echo "wire-profile: the benchmark ended before a pbxd settled" >&2
	exit 1
fi
port=$(ss -ltnpH | sed -n "s/.*127\.0\.0\.1:\([0-9]*\) .*pid=$pid,.*/\1/p" | head -1)
[ -n "$port" ] || { echo "wire-profile: pbxd $pid has no admin port listening" >&2; exit 1; }

sleep $((at - 2)) # about what recognising it took, and a margin at the far end
echo "wire-profile: $W — $KIND profile of pbxd $pid on :$port"
curl -sf -o "$out" "http://127.0.0.1:$port/debug/pprof/$path"
wait $bench || { cat benchmark/out/profile-$W.log >&2; exit 1; }
trap - EXIT INT TERM
tail -1 benchmark/out/profile-$W.log
# shellcheck disable=SC2086 # $top is two flags
$GO tool pprof $top -nodecount 60 benchmark/out/pbxd "$out"
