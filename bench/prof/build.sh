#!/bin/sh
# Build the SIGPROF sampler into DIR (default: a fresh temporary directory)
# and print DIR.
set -e
here=$(cd "$(dirname "$0")" && pwd)
dir=${1:-$(mktemp -d)}
mkdir -p "$dir"
cc -O2 -fPIC -shared -Wall -o "$dir/sigprof.so" "$here/sigprof.c"
echo "$dir"
