#!/usr/bin/env bash
# Where does host time go *inside* the crates? The benchmark times layers
# from outside (spans around public calls); this samples one workload of
# the unmodified benchmark binary at 1 kHz of CPU time and attributes the
# samples to functions, and reports the allocator's footprint beside them.
#
#   scripts/hostprof.sh <workload> [seconds] [top-N] [under-regex [not-under-regex]]
#
# Needs only cargo, gcc and addr2line. Builds benchmark/ with debuginfo
# into target/hostprof/ (no file under benchmark/ changes; its release
# profile is otherwise the one the benchmark measures), preloads a small
# SIGPROF sampler into one run, symbolises with `addr2line -f -C -i`, and
# prints: top-N functions by flat samples (the innermost frame, inlined
# ones included, that belongs to a gpl_* crate or lies outside the
# binary), top-N by inclusive samples (such a frame anywhere on the stack,
# once per sample), the samples whose innermost frame is foreign (libc's
# memcpy, memset, malloc, ...) by the first gpl_* frame that called into
# it, then wall seconds beside user/system ones (work spread over several
# cores shows as user above wall), minor faults per operation and peak RSS
# from getrusage. With an under-regex, also the share and flat top-N of the
# samples that have a frame matching it and none matching the
# not-under-regex: "time under f but not under g or h", e.g.
#   scripts/hostprof.sh shard_chaos 8 25 run_pool 'run_part|run_sort_kernel'
# The timer asks for 1 kHz; the kernel tick bounds what it gets (250 Hz
# per busy thread on a HZ=250 kernel). Faults and seconds cover the whole
# process — set-up included — measured from after the sampler's own
# buffer is touched; operations are the benchmark's "attempted" count.
# Peak RSS is `ru_maxrss` less that buffer, which stays resident from
# start to end, in MB of 1024 KB, the unit of the benchmark's
# `peak_rss_mb`. It is the whole process's peak, so it reads above
# `peak_rss_mb`, which the benchmark takes before its later set-ups.
set -euo pipefail
workload="${1:?usage: scripts/hostprof.sh <workload> [seconds] [top-N] [under-regex [not-under-regex]]}"
seconds="${2:-8}"
top="${3:-25}"
under="${4:-}"
not_under="${5:-}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
dir="$root/target/hostprof"
mkdir -p "$dir/out"

CARGO_PROFILE_RELEASE_DEBUG=1 CARGO_TARGET_DIR="$dir" \
    cargo build --offline --release --manifest-path "$root/benchmark/Cargo.toml" >&2
bin="$dir/release/gpl-benchmark"

cat > "$dir/sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <dlfcn.h>
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <time.h>

#define DEPTH 64
#define CAP (8u << 20) /* stack slots: 64 MB, touched up front */
static void **buf;
static volatile size_t used;
static struct rusage base;
static struct timespec wall0;

static void on_prof(int sig) {
    (void)sig;
    void *pcs[DEPTH];
    int n = backtrace(pcs, DEPTH);
    size_t at = __atomic_fetch_add(&used, (size_t)n + 1, __ATOMIC_RELAXED);
    if (n <= 0 || at + (size_t)n + 1 > CAP) return;
    buf[at] = (void *)(size_t)n;
    memcpy(&buf[at + 1], pcs, (size_t)n * sizeof(void *));
}

__attribute__((constructor)) static void start(void) {
    buf = calloc(CAP, sizeof(void *));
    if (!buf) return;
    /* calloc's zero pages are not resident until written: touch each
     * one, through a volatile pointer the compiler cannot drop. */
    for (size_t at = 0; at < CAP * sizeof(void *); at += 4096)
        ((volatile char *)buf)[at] = 0;
    void *warm[4];
    backtrace(warm, 4); /* loads the unwinder outside the handler */
    getrusage(RUSAGE_SELF, &base);
    clock_gettime(CLOCK_MONOTONIC, &wall0);
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_handler = on_prof;
    sa.sa_flags = SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval it = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &it, NULL);
}

static double secs(struct timeval a, struct timeval b) {
    return (double)(a.tv_sec - b.tv_sec) + (double)(a.tv_usec - b.tv_usec) / 1e6;
}

__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("HOSTPROF_SAMPLES");
    FILE *f = path ? fopen(path, "w") : NULL;
    if (!f || !buf) return;
    struct rusage now;
    getrusage(RUSAGE_SELF, &now);
    struct timespec wall;
    clock_gettime(CLOCK_MONOTONIC, &wall);
    fprintf(f, "rusage %ld %.3f %.3f %ld %.3f\n", now.ru_minflt - base.ru_minflt,
            secs(now.ru_utime, base.ru_utime), secs(now.ru_stime, base.ru_stime),
            now.ru_maxrss - (long)(CAP * sizeof(void *) / 1024),
            (double)(wall.tv_sec - wall0.tv_sec) + (double)(wall.tv_nsec - wall0.tv_nsec) / 1e9);
    Dl_info self;
    dladdr((void *)start, &self);
    size_t end = used < CAP ? used : CAP;
    for (size_t at = 0; at < end;) {
        size_t n = (size_t)buf[at++];
        if (n == 0 || at + n > end) break;
        /* Frames 0 and 1 are this handler and the signal trampoline;
         * frame 2 is the interrupted pc, the rest return addresses. */
        for (size_t i = 2; i < n; i++) {
            char *pc = (char *)buf[at + i] - (i > 2);
            Dl_info in;
            if (!dladdr(pc, &in) || !in.dli_fname) {
                fputs(" s[unknown]", f);
            } else if (in.dli_fbase == self.dli_fbase) {
                fputs(" s[sampler]", f);
            } else if (strstr(in.dli_fname, "gpl-benchmark")) {
                fprintf(f, " x%lx", (unsigned long)(pc - (char *)in.dli_fbase));
            } else {
                const char *base_name = strrchr(in.dli_fname, '/');
                fprintf(f, " s%s[%s]", in.dli_sname ? in.dli_sname : "",
                        base_name ? base_name + 1 : in.dli_fname);
            }
        }
        fputc('\n', f);
        at += n;
    }
    fclose(f);
}
EOF
gcc -O2 -fPIC -shared -o "$dir/sampler.so" "$dir/sampler.c" -ldl

samples="$dir/out/$workload.samples"
log="$dir/out/$workload.log"
HOSTPROF_SAMPLES="$samples" LD_PRELOAD="$dir/sampler.so" \
    "$bin" --out "$dir/out" --workload "$workload" --seconds "$seconds" --trace 0 > "$log" 2>&1 \
    || { cat "$log" >&2; exit 1; }
attempted="$(sed -n 's/^# operations attempted \([0-9]*\) failed.*/\1/p' "$log")"

# One addr2line call for every distinct pc inside the benchmark binary:
# `-a` heads each answer with its address, `-i` follows it with one
# function/file pair per inlined frame, innermost first.
tr ' ' '\n' < "$samples" | sed -n 's/^x//p' | sort -u > "$dir/out/$workload.pcs"
addr2line -a -f -C -i -e "$bin" < "$dir/out/$workload.pcs" > "$dir/out/$workload.sym"

awk -v top="$top" -v ops="${attempted:-0}" -v workload="$workload" \
    -v under="$under" -v not_under="$not_under" '
    function short(name) { # drop the crate hash and generic arguments
        sub(/::h[0-9a-f]+$/, "", name)
        return name
    }
    FNR == NR { # the addr2line answers
        if ($0 ~ /^0x[0-9a-f]+$/) { pc = substr($0, 3); sub(/^0+/, "", pc); depth = 0; next }
        if (depth % 2 == 0) chain[pc] = chain[pc] (depth ? "\n" : "") short($0)
        depth++
        next
    }
    $1 == "rusage" { faults = $2; user = $3; sys = $4; rss_kb = $5; wall = $6; next }
    {
        total++
        delete seen
        innermost = ""
        caller = ""
        foreign = 0
        is_under = 0
        is_not_under = 0
        for (i = 1; i <= NF; i++) {
            n = 1
            names[1] = substr($i, 2)
            inside = substr($i, 1, 1) == "x"
            if (inside) n = split(chain[substr($i, 2)], names, "\n")
            for (j = 1; j <= n; j++) {
                if (under != "" && names[j] ~ under) is_under = 1
                if (not_under != "" && names[j] ~ not_under) is_not_under = 1
                if (inside && names[j] !~ /gpl_/) continue # std, core, alloc glue
                if (innermost == "") { innermost = names[j]; foreign = !inside }
                if (caller == "" && inside) caller = names[j]
                if (!(names[j] in seen)) { seen[names[j]] = 1; incl[names[j]]++ }
            }
        }
        flat[innermost]++
        if (foreign) { foreign_total++; by_caller[caller == "" ? "(no gpl_* frame)" : caller]++ }
        if (is_under && !is_not_under) { selected_total++; selected[innermost]++ }
    }
    function table(title, counts,    name, cmd) {
        printf "\n%s\n", title
        fflush()
        cmd = "sort -t\"\t\" -k1,1nr -k2 | head -n " top
        for (name in counts) printf "%d\t%6.2f%%  %s\n", counts[name], 100 * counts[name] / total, name | cmd
        close(cmd)
    }
    END {
        printf "# %s: %d samples of CPU time\n", workload, total
        table("flat (innermost gpl_* or foreign frame):", flat)
        table("inclusive (such a frame anywhere on the stack):", incl)
        table(sprintf("foreign innermost frame, %.2f%% of samples, by first gpl_* caller:", \
            100 * foreign_total / total), by_caller)
        if (under != "") {
            title = sprintf("under /%s/", under)
            if (not_under != "") title = title sprintf(" and not under /%s/", not_under)
            table(sprintf("%s: %d samples, %.2f%% of all; flat:", title, selected_total, \
                100 * selected_total / total), selected)
        }
        printf "\nwall %.2f s  user %.2f s  system %.2f s  minor faults %d", wall, user, sys, faults
        if (ops > 0) printf "  operations %d  faults/operation %.1f", ops, faults / ops
        printf "  peak RSS %.1f MB\n", rss_kb / 1024
    }
' "$dir/out/$workload.sym" "$samples"
