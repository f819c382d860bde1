#!/bin/sh
# Run the server with the SIGPROF sampler preloaded, one sample file pair
# per process: $C4_PROF_DIR/prof.<pid>.{pcs,maps}. Give it to servbench as
# its server:
#
#   bench/prof/build.sh /tmp/prof
#   C4_PROF_DIR=/tmp/prof C4_PROF_FROM_S=3 C4_PROF_TO_S=10 \
#     python3 servbench/run.py --workload skew-rw --seed 1 --seconds 30 \
#       --trace 0 --server "$PWD/bench/prof/serve.sh"
#
# C4_PROF_SERVER overrides the server binary (default: the checkout's
# _build/default/bin/c4_sim.exe).
here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../.." && pwd)
dir=${C4_PROF_DIR:?set C4_PROF_DIR to the directory build.sh wrote}
server=${C4_PROF_SERVER:-$root/_build/default/bin/c4_sim.exe}
C4_PROF_OUT="$dir/prof.$$" LD_PRELOAD="$dir/sigprof.so" exec "$server" "$@"
