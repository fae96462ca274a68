/* The sampler of tools/profile_loop.py: a SIGPROF handler that records
   the interrupted instruction pointer, REG_RIP of its ucontext, under an
   ITIMER_PROF timer firing every usec microseconds of CPU time. Built by
   kernel._built and loaded with ctypes; x86-64 Linux only. */
#define _GNU_SOURCE
#include <signal.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define CAP (1 << 20)
static unsigned long long pcs[CAP];
static long taken;

static void
on_prof(int sig, siginfo_t *info, void *uc)
{
    (void)sig;
    (void)info;
    long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < CAP)
        pcs[i] = (unsigned long long)((ucontext_t *)uc)->uc_mcontext.gregs[REG_RIP];
}

int
sampler_start(long usec)
{
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    struct itimerval every = {{0, usec}, {0, usec}};
    return sigaction(SIGPROF, &sa, NULL) || setitimer(ITIMER_PROF, &every, NULL) ? -1 : 0;
}

int
sampler_stop(void)
{
    struct itimerval never = {{0, 0}, {0, 0}};
    return setitimer(ITIMER_PROF, &never, NULL);
}

long
sampler_count(void)
{
    return taken < CAP ? taken : CAP;
}

const unsigned long long *
sampler_pcs(void)
{
    return pcs;
}
