"""Exhaustive verifiers for the structures of the girth Ramsey theorem.

The package implements the layered data model of Reiher and Rödl, *The
girth Ramsey theorem* (hypergraphs, whose edges may have any sizes,
systems of copies, pretrains, quasitrains and trains), the extensions
of pretrains and quasitrains (wagon assimilation, semidirect extension,
derivation, disjoint unions), and exhaustive verifiers for the
structural predicates (girth at several levels, tidiness, master and
supreme copies, clean intersections, sequence girth, arrowing).
"""

from .errors import (Budget, BudgetExceeded, InvalidArgument, PartiteError,
                     PreconditionViolation)
from .core import (Embedding, Hypergraph, PartiteStructure,
                   are_isomorphic, canonical_cycle,
                   check_cycle, complete_graph, complete_multipartite,
                   complete_uniform, enumerate_copies, find_isomorphism,
                   girth_exceeds, is_A_intersecting,
                   is_induced_subhypergraph, is_linear,
                   is_partite_subhypergraph, is_strongly_induced,
                   make_partition, require_valid, shortest_edge_cycle,
                   validate, vkey)
from .copies import (Connector, Copy, CopySystem, CycleClass, CycleOfCopies,
                     check_copy_cycle, classify_cycle,
                     clean_intersection_violation,
                     clean_intersections_linear_form, copy_of_embedding,
                     edge_connector, enumerate_copy_cycles,
                     find_master_copy, girth_of_system_exceeds,
                     girth_of_system_witness, has_clean_intersections,
                     has_master, is_semitidy, is_tidy, master_copies,
                     normalize_girth_bound, semitidy_equivalence_check,
                     validate_system, vertex_connector)
from .arrowing import (ArrowResult, edge_arrows, enumerate_lines,
                       enumerate_words, hj_line_property, min_hj_exponent,
                       min_product_ramsey, vertex_arrows)
from .pretrain import (Assimilation, BigCycle, BigCycleClass,
                       FrakGirthFailure, Piece, Pretrain, PretrainCopySystem,
                       SupremeWitness, Wagon, are_order_isomorphic,
                       check_big_cycle, classify_big_cycle, contraction_map,
                       derive, enumerate_big_cycles, find_supreme_copy,
                       frak_Girth_exceeds, frak_Girth_witness,
                       frak_girth_pretrain_exceeds,
                       frak_girth_pretrain_witness, has_supreme,
                       is_extension, is_linear_pretrain, is_scattered,
                       is_subpretrain, is_tame_extension, long_piece,
                       ordered_pair_problems, ordered_pairs_isomorphic,
                       semidirect_extend, short_piece, subpretrain,
                       supreme_copies, validate_pretrain_system,
                       wagon_assimilation, wagon_connector)
from .train import (GirthSequence, Quasitrain, QuasitrainAssimilation,
                    QuasitrainCopySystem, RevisionReport, SeqFrakGirthFailure,
                    SeqGirthFailure, Train, assimilate_level_one,
                    disjoint_union, disjoint_union_with_copies,
                    frak_Girth_seq_exceeds, frak_Girth_seq_witness,
                    frak_girth_seq_exceeds, frak_girth_seq_witness,
                    girth_sequence, is_subquasitrain, lift_one_extension,
                    semidirect_extend_quasitrain, subquasitrain,
                    validate_quasitrain, validate_quasitrain_system,
                    validate_train, verify_revision)

__version__ = "0.1.0"
