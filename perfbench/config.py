"""Fixed settings of the benchmark (sizes, rates, limits).

Changing any value here changes what the benchmark measures: do it in
a change of its own, never in one that claims a gain.
"""

WORKLOADS = ("oneshot-suite", "heap-tvla", "interproc-library", "serve-mixed")

SPEC = "cmp"

#: set-up is measured this many times per run (fresh processes); the
#: reported ``setup_s`` is their median
SETUP_SAMPLES = 3

#: a batch run makes one pass over its clients per this many seconds of
#: ``--seconds`` (at least one), so every run of a workload does the
#: same work; about one pass's length on a 2-CPU machine, except that
#: heap-tvla takes two shorter passes for more samples per client
PASS_SECONDS = {"oneshot-suite": 10.0, "heap-tvla": 5.0, "interproc-library": 10.0}

#: a traced run fails if the self times of any root operation's span
#: tree miss its wall time by more than this share
SELFTIME_TOLERANCE = 0.02

# -- heap-tvla -----------------------------------------------------------------

#: ``make_heap_client`` parameter design, (sets, fields, loops, reads):
#: eleven points covering sets 2-4, fields 2-4, loops 1-2, reads 2-4,
#: each certifying in under 2 s, run in this order.  The seed renames
#: their identifiers; drawing the parameters themselves by seed spread
#: the certificate bytes of a run over 3x between seeds.  Five light
#: clients, one middle client and five heavy ones: the median then
#: always falls on the middle client, whose certify and check times sit
#: at least 1.4x from every other client's, so noise cannot swap which
#: client the median reads (with the clients evenly spread, that swap
#: moved the median check time by 40% between seeds).
HEAP_DESIGN = (
    (3, 2, 1, 2),
    (4, 2, 1, 2),
    (3, 3, 1, 2),
    (4, 3, 1, 2),
    (2, 2, 1, 3),
    (4, 2, 2, 2),
    (4, 3, 2, 3),
    (3, 3, 2, 3),
    (2, 3, 2, 3),
    (4, 4, 2, 2),
    (2, 2, 2, 4),
)

#: bounded exploration budget of the heap soundness oracle
HEAP_ORACLE_PATHS = 2000

# -- interproc-library ---------------------------------------------------------

#: odd, for the same reason as ``HEAP_DESIGN``
LIBRARY_CLIENTS = 7
LIBRARY_STATEMENTS = 1000
#: one shared library for every seed (the seed draws the clients), as
#: when many clients link one library
LIBRARY_SEED = 0

# -- serve-mixed ---------------------------------------------------------------

#: request mix (an assumption: no production traces exist), exact in
#: every block of 20 consecutive requests
MIX_BLOCK = {"hit": 12, "near_hit": 5, "miss": 3}

#: sources certified, then hit once, before timing starts: timed hits
#: repeat these, and the daemon's checker has already built each one
SERVE_BASE_SOURCES = 48

#: ``make_client`` shape of served sources (sets, iterators, operations);
#: one shape keeps the per-request cost alike across seeds
SERVE_CLIENT_SHAPE = (2, 3, 25)

#: offered rates (requests/s) and how long each is held, in multiples
#: of ``--seconds``.  The mix reaches 40 req/s in a closed loop over two
#: connections on a 2-CPU x86-64 machine (Python 3.11).  ``low`` is 1/8
#: of that: at 1/4, hits queued behind certifications sat right at the
#: median and moved it by 60% between seeds.  ``high`` is 1/2: at 3/4
#: the median latency spread 1.8x between seeds.
SERVE_RATE_LOW = 5.0
SERVE_RATE_HIGH = 20.0
SERVE_LOW_LENGTH = 2.0
SERVE_HIGH_LENGTH = 1.0

#: a request answered later than this (from its scheduled send time)
#: does not count toward ``goodput_rps.high``
SERVE_LATENCY_LIMIT_MS = 1000.0

#: daemon worker threads: at most this many, and at most ``nproc``
SERVE_MAX_WORKERS = 2
