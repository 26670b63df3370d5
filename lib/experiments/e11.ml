let run ~quick =
  Exp_util.header ~id:"E11"
    ~title:"minimal depth of shuffle-based sorters (exhaustive, tiny n)";
  let tbl =
    Ascii_table.create
      ~columns:
        [ ("n", Ascii_table.Right);
          ("depth", Ascii_table.Right);
          ("verdict", Ascii_table.Left);
          ("bitonic depth", Ascii_table.Right);
          ("nodes/time note", Ascii_table.Left) ]
  in
  let row ?(max_nodes = 200_000_000) n depth note =
    let budget = { Driver.max_nodes; max_seconds = None } in
    let verdict =
      match Min_depth.search ~n ~depth ~budget () with
      | Min_depth.Sorter prog ->
          assert (Min_depth.verify_witness ~n prog);
          "sorter exists (witness verified)"
      | Min_depth.Impossible -> "impossible (exhaustive)"
      | Min_depth.Inconclusive | Min_depth.Interrupted -> "inconclusive (budget)"
    in
    Ascii_table.add_row tbl
      [ string_of_int n; string_of_int depth; verdict;
        string_of_int (Bitonic.depth_formula ~n); note ]
  in
  row 2 1 "trivial";
  row 4 2 "refutes depth < bitonic's 3";
  row 4 3 "minimal at n=4";
  row 8 3 "trivial lower bound lg n";
  row 8 4 "";
  if not quick then
    row ~max_nodes:2_000_000_000 8 5 "depth 6 also refuted; 7 sorts";
  Ascii_table.print tbl;
  Exp_util.footnote
    "search space: images of all 2^n zero-one inputs under stage prefixes — a layered \
     BFS through the generic Search.Driver with equality dedup and the unit-mask \
     reachability prune; every 'sorter exists' witness is re-verified by the \
     independent packed 0-1 checker. 'bitonic depth' is Batcher's comparator \
     depth; in shuffle-based form bitonic sort takes (lg n)^2 stages (9 at n=8)."
