"""Persistent data-structure workloads (paper §3.2, Table 1).

Seven single-threaded benchmarks, each a pointer-based data structure over
the simulated NVMM heap, transactionalised with write-ahead logging:

======================  ======  ====================================
Benchmark               Abbrev  Operation
======================  ======  ====================================
Graph                   GH      insert or delete edges
Hash-Map                HM      insert or delete entries
Linked-List             LL      insert or delete nodes (max 1024)
String Swap             SS      swap two 256-byte strings
AVL-tree                AT      insert or delete nodes
B-tree (2-3)            BT      insert or delete nodes
RB-tree                 RT      insert or delete nodes
======================  ======  ====================================

Every node is 64 bytes and cache-block aligned, so persisting one node
update takes one ``clwb``.  The self-balancing trees use *full logging*
(paper §3.2): the whole set of nodes that rebalancing might touch is logged
up front, so each operation needs exactly one 4-pcommit transaction.
"""
