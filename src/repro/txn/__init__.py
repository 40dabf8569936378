"""Write-ahead-logging transactions over simulated NVMM (paper §3.1).

Every workload operation is wrapped in an undo-log transaction with the
paper's four strictly-ordered steps:

1. write the undo log and make it durable,
2. set ``logged_bit`` and make it durable,
3. apply the updates and make them durable,
4. clear ``logged_bit`` and make it durable.

Each step ends with a persist barrier (``sfence; pcommit; sfence``), so one
transaction costs 4 pcommits and 8 sfences — the clustering that motivates
speculative persistence.

The :class:`~repro.txn.modes.PersistMode` selects the paper's evaluation
variants: ``BASE`` (no logging), ``LOG`` (undo logging only), ``LOG_P``
(+ clwb/pcommit, no fences), and ``LOG_P_SF`` (the only failure-safe one).
"""
