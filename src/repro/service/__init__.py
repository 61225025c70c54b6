"""Evaluation service: the shareable half of Section 5.1's architecture.

The paper puts a *persistent disk-based database* (the EvaluationCache)
between the exploration layers and the expensive Evaluators.  This
package turns that database into a long-lived, multi-process service:

* :mod:`repro.service.store` — a durable, content-addressed result store
  backed by sqlite (WAL mode), safe for concurrent writers across
  processes, with namespaces, GC and the evaluation cache
  (:class:`~repro.service.store.StoreEvaluationCache`) every sweep and
  evaluator checkpoints into;
* :mod:`repro.service.queue` — a persistent job queue (queued → running
  → done/failed) with **lease-based claiming**: every claim carries a
  lease deadline and a fencing token, workers renew via heartbeat, and
  expired leases are reaped back onto the queue — so any number of
  service processes and remote workers share one database without
  double execution;
* :mod:`repro.service.jobs` — job specs (sweep / estimate / explore) and
  their execution through the existing fault-tolerant runtime;
* :mod:`repro.service.server` / :mod:`repro.service.client` — a
  stdlib-only JSON HTTP API (``repro serve``) and its Python client
  (``repro submit``), including the worker-fleet protocol
  (register / claim / heartbeat / complete / fail / result upload);
* :mod:`repro.service.worker` — the standalone pull-loop worker process
  (``repro work``) that executes jobs against a remote server, reading
  and writing the shared store over HTTP.

Everything is standard library + numpy; there is no new dependency.
"""

from repro.service.client import ServiceClient
from repro.service.jobs import execute_job, validate_spec
from repro.service.queue import DEFAULT_LEASE, JobQueue, JobRecord
from repro.service.server import EvalService, make_server, serve
from repro.service.store import ResultStore, StoreEvaluationCache
from repro.service.worker import FleetWorker, RemoteStore, work

__all__ = [
    "DEFAULT_LEASE",
    "EvalService",
    "FleetWorker",
    "JobQueue",
    "JobRecord",
    "RemoteStore",
    "ResultStore",
    "ServiceClient",
    "StoreEvaluationCache",
    "execute_job",
    "make_server",
    "serve",
    "validate_spec",
    "work",
]
