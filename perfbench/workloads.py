"""The benchmark's fixed inputs: campaign matrices and service requests.

Plain data only (no ``repro`` import), shared by ``run.py`` and its child
processes.  Machine seeds are fixed at ``(0,)`` everywhere; the benchmark's
``--seed`` only chooses which tuples and requests are re-checked against
the reference path.
"""

from __future__ import annotations

APPS = ("art", "bzip2", "equake", "mcf")
RESIZE = "heap-array-resize"
FREE = "immediate-free"
MACHINE_SEEDS = (0,)

DIVERSITY = (
    "stdapp",
    "no-diversity",
    "zero-before-free",
    "rearrange-heap",
    "pad-malloc-8",
    "pad-malloc-32",
    "pad-malloc-256",
    "pad-malloc-1024",
)

#: The figure matrix, one ``CampaignRequest``.  ``jobs`` is the
#: ``DPMR_JOBS`` the campaign process runs with.
FIGURES = {
    "diversity-mds-s6": {
        "request": {
            "workloads": APPS,
            "kinds": (RESIZE, FREE),
            "variants": DIVERSITY,
            "design": "mds",
            "scale": 6,
            "seeds": MACHINE_SEEDS,
        },
        "jobs": 2,
    },
}

#: The service workload: two connections, each sending overlapping
#: 3-variant windows of the SDS diversity family for every app and kind.
SERVICE = {
    "apps": APPS,
    "kinds": (RESIZE, FREE),
    "pool": DIVERSITY,
    "design": "sds",
    "scale": 1,
    "window": 3,
    "windows": 4,
    "connections": 2,
    "jobs": 1,
}


def service_requests(connection):
    """Connection ``connection``'s requests, in submission order.

    Window ``w`` of connection ``c`` holds pool variants ``2w + c`` to
    ``2w + c + 2`` (mod 8): the two connections' windows in one lockstep
    round share two variants, and each connection alone covers the pool.
    """
    s = SERVICE
    pool = s["pool"]
    out = []
    for app in s["apps"]:
        for kind in s["kinds"]:
            for w in range(s["windows"]):
                first = 2 * w + connection
                out.append(
                    {
                        "workloads": (app,),
                        "kinds": (kind,),
                        "variants": tuple(
                            pool[(first + j) % len(pool)] for j in range(s["window"])
                        ),
                        "design": s["design"],
                        "scale": s["scale"],
                        "seeds": MACHINE_SEEDS,
                    }
                )
    return out
