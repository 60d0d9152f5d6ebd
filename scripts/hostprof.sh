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
#
#   scripts/hostprof.sh --heap <workload> [seconds] [top-N]
#
# Heap mode says what the heap peak holds. Instead of the timer, the
# preloaded library interposes the malloc family (through glibc's
# __libc_* entry points), counts every block's usable size into the live
# heap, keeps each live block of 64 KiB or more with its call stack, and
# snapshots those blocks whenever the live heap reaches a new high. It
# prints the peak's live heap and its blocks of 64 KiB or more by call
# site, each under its first gpl_* frame, then the same rusage line (the
# interposition costs time, so read seconds and faults from a plain run).
set -euo pipefail
heap=0
if [[ "${1:-}" == --heap ]]; then
    heap=1
    shift
fi
workload="${1:?usage: scripts/hostprof.sh [--heap] <workload> [seconds] [top-N] [under-regex [not-under-regex]]}"
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
#include <errno.h>
#include <execinfo.h>
#include <malloc.h>
#include <pthread.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/types.h>
#include <time.h>

static struct rusage base;
static struct timespec wall0;

#ifdef HEAP
/* Heap mode: the malloc family, interposed. Every block's usable size
 * counts into the live heap; blocks of BIG bytes or more are kept with
 * their call stacks, and the set live at the highest live heap is what
 * the run reports. */
extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void *__libc_memalign(size_t, size_t);
extern void __libc_free(void *);

#define BIG (64u << 10)
#define HDEPTH 32
#define MAXB 8192 /* live big blocks kept; more are counted as untracked */
struct block {
    void *p;
    size_t bytes;
    int n;
    void *pcs[HDEPTH];
};
/* Both sets are touched up front and left out of peak RSS. */
static struct block live_set[MAXB], peak_set[MAXB];
static size_t live_n, peak_n, untracked, version, peak_version = (size_t)-1;
static ssize_t live_bytes, peak_bytes;
static pthread_mutex_t lock = PTHREAD_MUTEX_INITIALIZER;
/* Set while the unwinder or the report allocates: such blocks only
 * count into the live heap, so the lock is never taken twice. */
static __thread int busy;
#define SELF_KB ((long)(2 * sizeof live_set / 1024))

static void grew(ssize_t now) {
    pthread_mutex_lock(&lock);
    if (now > peak_bytes) {
        peak_bytes = now;
        if (peak_version != version) {
            memcpy(peak_set, live_set, live_n * sizeof *live_set);
            peak_n = live_n;
            peak_version = version;
        }
    }
    pthread_mutex_unlock(&lock);
}

static void track(void *p, size_t bytes) {
    ssize_t now = __atomic_add_fetch(&live_bytes, (ssize_t)bytes, __ATOMIC_RELAXED);
    if (busy) return;
    if (bytes >= BIG) {
        struct block b = {p, bytes, 0, {0}};
        busy = 1;
        b.n = backtrace(b.pcs, HDEPTH);
        busy = 0;
        pthread_mutex_lock(&lock);
        if (live_n < MAXB)
            live_set[live_n++] = b;
        else
            untracked++;
        version++;
        pthread_mutex_unlock(&lock);
    }
    if (now > __atomic_load_n(&peak_bytes, __ATOMIC_RELAXED)) grew(now);
}

/* Before the block goes back to libc, so no other thread can have it. */
static void untrack(void *p, size_t bytes) {
    if (bytes >= BIG && !busy) {
        pthread_mutex_lock(&lock);
        for (size_t i = live_n; i-- > 0;) {
            if (live_set[i].p == p) {
                live_set[i] = live_set[--live_n];
                version++;
                break;
            }
        }
        pthread_mutex_unlock(&lock);
    }
    __atomic_sub_fetch(&live_bytes, (ssize_t)bytes, __ATOMIC_RELAXED);
}

static void *tracked(void *p) {
    if (p) track(p, malloc_usable_size(p));
    return p;
}

void *malloc(size_t n) { return tracked(__libc_malloc(n)); }
void *calloc(size_t k, size_t n) { return tracked(__libc_calloc(k, n)); }
void *memalign(size_t al, size_t n) { return tracked(__libc_memalign(al, n)); }
void *aligned_alloc(size_t al, size_t n) { return tracked(__libc_memalign(al, n)); }

int posix_memalign(void **out, size_t al, size_t n) {
    if (al < sizeof(void *) || (al & (al - 1))) return EINVAL;
    void *p = tracked(__libc_memalign(al, n));
    if (!p) return ENOMEM;
    *out = p;
    return 0;
}

void free(void *p) {
    if (!p) return;
    untrack(p, malloc_usable_size(p));
    __libc_free(p);
}

void *realloc(void *p, size_t n) {
    if (!p) return malloc(n);
    if (n == 0) { /* glibc frees the block and returns NULL */
        free(p);
        return NULL;
    }
    size_t old = malloc_usable_size(p);
    untrack(p, old);
    void *q = __libc_realloc(p, n);
    if (!q) track(p, old); /* p is still live, its stack unknown */
    return tracked(q);
}
#else
#define SELF_KB ((long)(CAP * sizeof(void *) / 1024))
#define DEPTH 64
#define CAP (8u << 20) /* stack slots: 64 MB, touched up front */
static void **buf;
static volatile size_t used;

static void on_prof(int sig) {
    (void)sig;
    void *pcs[DEPTH];
    int n = backtrace(pcs, DEPTH);
    size_t at = __atomic_fetch_add(&used, (size_t)n + 1, __ATOMIC_RELAXED);
    if (n <= 0 || at + (size_t)n + 1 > CAP) return;
    buf[at] = (void *)(size_t)n;
    memcpy(&buf[at + 1], pcs, (size_t)n * sizeof(void *));
}

#endif

/* Zero pages are not resident until written: touch each one, through a
 * volatile pointer the compiler cannot drop. */
static void touch(void *p, size_t bytes) {
    for (size_t at = 0; at < bytes; at += 4096)
        ((volatile char *)p)[at] = 0;
}

__attribute__((constructor)) static void start(void) {
    void *warm[4];
#ifdef HEAP
    touch(live_set, sizeof live_set);
    touch(peak_set, sizeof peak_set);
    busy = 1;
    backtrace(warm, 4); /* loads the unwinder outside the hooks */
    busy = 0;
    getrusage(RUSAGE_SELF, &base);
    clock_gettime(CLOCK_MONOTONIC, &wall0);
#else
    buf = calloc(CAP, sizeof(void *));
    if (!buf) return;
    touch(buf, CAP * sizeof(void *));
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
#endif
}

static double secs(struct timeval a, struct timeval b) {
    return (double)(a.tv_sec - b.tv_sec) + (double)(a.tv_usec - b.tv_usec) / 1e6;
}

/* One frame: an offset into the benchmark binary, or a symbol. */
static void put_frame(FILE *f, const Dl_info *self, char *pc) {
    Dl_info in;
    if (!dladdr(pc, &in) || !in.dli_fname) {
        fputs(" s[unknown]", f);
    } else if (in.dli_fbase == self->dli_fbase) {
        fputs(" s[sampler]", f);
    } else if (strstr(in.dli_fname, "gpl-benchmark")) {
        fprintf(f, " x%lx", (unsigned long)(pc - (char *)in.dli_fbase));
    } else {
        const char *base_name = strrchr(in.dli_fname, '/');
        fprintf(f, " s%s[%s]", in.dli_sname ? in.dli_sname : "",
                base_name ? base_name + 1 : in.dli_fname);
    }
}

__attribute__((destructor)) static void stop(void) {
#ifdef HEAP
    busy = 1; /* stdio's own buffers are not the program's */
    const char *path = getenv("HOSTPROF_SAMPLES");
    FILE *f = path ? fopen(path, "w") : NULL;
    if (!f) return;
#else
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("HOSTPROF_SAMPLES");
    FILE *f = path ? fopen(path, "w") : NULL;
    if (!f || !buf) return;
#endif
    struct rusage now;
    getrusage(RUSAGE_SELF, &now);
    struct timespec wall;
    clock_gettime(CLOCK_MONOTONIC, &wall);
    fprintf(f, "rusage %ld %.3f %.3f %ld %.3f\n", now.ru_minflt - base.ru_minflt,
            secs(now.ru_utime, base.ru_utime), secs(now.ru_stime, base.ru_stime),
            now.ru_maxrss - SELF_KB,
            (double)(wall.tv_sec - wall0.tv_sec) + (double)(wall.tv_nsec - wall0.tv_nsec) / 1e9);
    Dl_info self;
    dladdr((void *)start, &self);
#ifdef HEAP
    pthread_mutex_lock(&lock);
    fprintf(f, "heap %zd %zu\n", peak_bytes, untracked);
    for (size_t i = 0; i < peak_n; i++) {
        fprintf(f, "b %zu", peak_set[i].bytes);
        /* Every frame is a return address. */
        for (int j = 0; j < peak_set[i].n; j++) put_frame(f, &self, (char *)peak_set[i].pcs[j] - 1);
        fputc('\n', f);
    }
    pthread_mutex_unlock(&lock);
#else
    size_t end = used < CAP ? used : CAP;
    for (size_t at = 0; at < end;) {
        size_t n = (size_t)buf[at++];
        if (n == 0 || at + n > end) break;
        /* Frames 0 and 1 are this handler and the signal trampoline;
         * frame 2 is the interrupted pc, the rest return addresses. */
        for (size_t i = 2; i < n; i++) put_frame(f, &self, (char *)buf[at + i] - (i > 2));
        fputc('\n', f);
        at += n;
    }
#endif
    fclose(f);
}
EOF
lib="$dir/sampler.so"
if ((heap)); then
    lib="$dir/heapprof.so"
    gcc -O2 -fPIC -shared -DHEAP -ftls-model=initial-exec -o "$lib" "$dir/sampler.c" -ldl -lpthread
else
    gcc -O2 -fPIC -shared -o "$lib" "$dir/sampler.c" -ldl
fi

samples="$dir/out/$workload.samples"
log="$dir/out/$workload.log"
HOSTPROF_SAMPLES="$samples" LD_PRELOAD="$lib" \
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
    $1 == "heap" { heap = 1; peak = $2; untracked = $3; next }
    $1 == "b" { # a block live at the heap peak, by its first gpl_* frame
        site = "(no gpl_* frame)"
        for (i = 3; i <= NF && site ~ /^\(/; i++) {
            if (substr($i, 1, 1) != "x") continue
            n = split(chain[substr($i, 2)], names, "\n")
            for (j = 1; j <= n; j++) if (names[j] ~ /gpl_/) { site = names[j]; break }
        }
        big += $2
        blocks++
        bytes[site] += $2
        count[site]++
        next
    }
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
    function heap_table(    name, cmd) {
        printf "# %s: heap peak %.1f MB live; %.1f MB of it in %d blocks of 64 KiB or more", \
            workload, peak / 1048576, big / 1048576, blocks
        if (untracked > 0) printf " (%d more untracked)", untracked
        printf ", by first gpl_* frame:\n"
        fflush()
        cmd = "sort -t\"\t\" -k1,1nr -k2 | head -n " top " | cut -f2-"
        for (name in bytes) {
            printf "%d\t%8.2f MB %6.2f%% %6d blocks  %s\n", bytes[name], bytes[name] / 1048576, \
                100 * bytes[name] / peak, count[name], name | cmd
        }
        close(cmd)
    }
    END {
        if (heap) {
            heap_table()
            printf "\nwall %.2f s  user %.2f s  system %.2f s  minor faults %d", wall, user, sys, faults
            if (ops > 0) printf "  operations %d  faults/operation %.1f", ops, faults / ops
            printf "  peak RSS %.1f MB (malloc interposed)\n", rss_kb / 1024
            exit
        }
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
