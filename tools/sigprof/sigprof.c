/*
 * A SIGPROF sampler to preload into any process:
 *
 *   cc -O2 -shared -fPIC -o sigprof.so sigprof.c
 *   LD_PRELOAD=$PWD/sigprof.so SIGPROF_OUT=prof.txt some-binary args...
 *   python3 report.py prof.txt
 *
 * At load it arms ITIMER_PROF, which ticks on the process's CPU time
 * (every thread's), and on each SIGPROF records the interrupted thread's
 * program counter in a preallocated array — no allocation, no lock, nothing
 * but an atomic increment in the handler. At exit it writes the process's
 * memory map, then one sampled address a line, to $SIGPROF_OUT (default
 * sigprof.<pid>.txt). report.py resolves the addresses with addr2line.
 *
 * The timer asks for 997 samples a CPU-second but expires on the kernel's
 * clock ticks, so it cannot be finer. A process that ends without running
 * exit handlers (abort, a signal) writes nothing.
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1u << 22)
#define PERIOD_USEC (1000000 / 997)

static uintptr_t samples[MAX_SAMPLES];
static atomic_size_t taken;

static void on_prof(int sig, siginfo_t *info, void *context) {
    (void)sig;
    (void)info;
    const ucontext_t *uc = context;
    uintptr_t pc;
#if defined(__x86_64__)
    pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    pc = (uintptr_t)uc->uc_mcontext.pc;
#else
#error "sigprof: no program counter for this architecture"
#endif
    size_t i = atomic_fetch_add_explicit(&taken, 1, memory_order_relaxed);
    if (i < MAX_SAMPLES) {
        samples[i] = pc;
    }
}

static void set_timer(long usec) {
    struct itimerval it;
    memset(&it, 0, sizeof it);
    it.it_interval.tv_usec = usec;
    it.it_value.tv_usec = usec;
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((constructor)) static void sigprof_start(void) {
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    set_timer(PERIOD_USEC);
}

__attribute__((destructor)) static void sigprof_stop(void) {
    set_timer(0);
    char fallback[64];
    const char *path = getenv("SIGPROF_OUT");
    if (!path || !*path) {
        snprintf(fallback, sizeof fallback, "sigprof.%ld.txt", (long)getpid());
        path = fallback;
    }
    FILE *out = fopen(path, "w");
    if (!out) {
        return;
    }
    FILE *maps = fopen("/proc/self/maps", "r");
    if (maps) {
        char line[4096];
        while (fgets(line, sizeof line, maps)) {
            fprintf(out, "map %s", line);
        }
        fclose(maps);
    }
    size_t n = atomic_load(&taken);
    if (n > MAX_SAMPLES) {
        fprintf(out, "dropped %zu\n", n - MAX_SAMPLES);
        n = MAX_SAMPLES;
    }
    for (size_t i = 0; i < n; i++) {
        fprintf(out, "pc %lx\n", (unsigned long)samples[i]);
    }
    fclose(out);
}
