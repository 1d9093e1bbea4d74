"""The documented CLI invocations pinned by golden files.

Each case is (golden file stem, argv); paths are relative to tests/data.
Regenerate goldens with ``python tests/regen_goldens.py`` after a deliberate
output change.
"""

CASES = [
    ("check_loop_binder", ["check", "--structure", "{d}/loop.json", "--formula", "down x. dia x"]),
    ("check_c2_binder", ["check", "--structure", "{d}/c2.json", "--formula", "down x. dia x"]),
    ("check_fo_loop", ["check", "--structure", "{d}/loop.json", "--formula", "E(c1,c1)", "--logic", "fo"]),
    ("equiv_loop_c2_hybrid0", ["equiv", "--left", "{d}/loop.json", "--right", "{d}/c2.json", "--logic", "hybrid", "--depth", "0"]),
    ("equiv_path3_path3_bf3", ["equiv", "--left", "{d}/path3.json", "--right", "{d}/path3.json", "--logic", "bf", "--depth", "3"]),
    ("equiv_star_bijection1", ["equiv", "--left", "{d}/star2.json", "--right", "{d}/star3.json", "--logic", "bijection", "--depth", "1"]),
    ("equiv_star9_bc1", ["equiv", "--left", "{d}/star9.json", "--right", "{d}/star9_p.json", "--logic", "bc", "--depth", "1"]),
    ("equiv_star_bf2", ["equiv", "--left", "{d}/star2.json", "--right", "{d}/star3.json", "--logic", "bf", "--depth", "2"]),
    ("equiv_star_bf3_trace", ["equiv", "--left", "{d}/star2.json", "--right", "{d}/star3.json", "--logic", "bf", "--depth", "3", "--trace"]),
    ("equiv_backedge_temporal1", ["equiv", "--left", "{d}/back_edge.json", "--right", "{d}/loop.json", "--logic", "hybrid-temporal", "--depth", "1"]),
    ("game_path3_loop_exhyb3", ["game", "--left", "{d}/path3.json", "--right", "{d}/loop.json", "--variant", "existential-hybrid", "--k", "3"]),
    ("game_loop_c2_gk1", ["game", "--left", "{d}/loop.json", "--right", "{d}/c2.json", "--variant", "comonadic-gk", "--k", "1"]),
    ("game_ef_trace", ["game", "--left", "{d}/loop.json", "--right", "{d}/c2.json", "--variant", "ef", "--k", "2", "--trace"]),
    ("game_ef_no_reply_trace", ["game", "--left", "{d}/one.json", "--right", "{d}/empty.json", "--variant", "ef", "--k", "1", "--trace"]),
    ("comonad_path3_hybrid2", ["comonad", "--structure", "{d}/path3.json", "--kind", "hybrid", "--k", "2"]),
    ("comonad_backedge_temporal1", ["comonad", "--structure", "{d}/back_edge.json", "--kind", "hybrid-temporal", "--k", "1"]),
    ("comonad_loop_hybrid2_i", ["comonad", "--structure", "{d}/loop.json", "--kind", "hybrid", "--k", "2", "--with-i"]),
    ("depth_path3", ["depth", "--structure", "{d}/path3.json"]),
    ("depth_star2", ["depth", "--structure", "{d}/star2.json"]),
    ("depth_isolated", ["depth", "--structure", "{d}/isolated_p.json"]),
    ("depth_one", ["depth", "--structure", "{d}/one.json"]),
    ("workspace_path6_q1", ["workspace", "--structure", "{d}/path6.json", "--q", "1", "--verify"]),
    ("workspace_path3_q2", ["workspace", "--structure", "{d}/path3.json", "--q", "2"]),
    ("invariance_unbounded", ["invariance", "--formula", "exists y (P(y))", "--notion", "generated:1", "--corpus", "{d}/corpus"]),
    ("invariance_bounded", ["invariance", "--formula", "exists y (E(c1,y) & P(y))", "--notion", "generated:2", "--corpus", "{d}/corpus"]),
    ("invariance_ball", ["invariance", "--formula", "E(c1,c1)", "--notion", "ball:1", "--corpus", "{d}/corpus"]),
    ("translate_binder", ["translate", "--formula", "down x. dia x"]),
    ("translate_box", ["translate", "--formula", "box (p & dia q)"]),
    ("characteristic_loop1", ["characteristic", "--structure", "{d}/loop.json", "--k", "1"]),
    ("characteristic_backedge_temporal", ["characteristic", "--structure", "{d}/back_edge.json", "--k", "1", "--temporal"]),
    ("error_bad_structure", ["check", "--structure", "{d}/nope.json", "--formula", "p"]),
    ("error_bad_formula", ["check", "--structure", "{d}/loop.json", "--formula", "down ."]),
]
