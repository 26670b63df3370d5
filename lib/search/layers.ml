type layer = (int * int) list

let all ~n =
  if n < 2 then invalid_arg "Layers.all: n must be >= 2";
  (* matchings by recursion on the smallest free channel: leave it
     unmatched, or pair it with any larger free channel *)
  let rec go = function
    | [] -> [ [] ]
    | c :: rest ->
        let without = go rest in
        let with_c =
          List.concat_map
            (fun c' ->
              let rest' = List.filter (fun x -> x <> c') rest in
              List.map (fun m -> (c, c') :: m) (go rest'))
            rest
        in
        without @ with_c
  in
  List.filter (fun l -> l <> []) (go (List.init n Fun.id))

let first ~n =
  if n < 2 then invalid_arg "Layers.first: n must be >= 2";
  List.init (n / 2) (fun k -> (2 * k, (2 * k) + 1))

(* The stabilizer of [first]: permute the floor(n/2) pairs and flip
   within each pair; any leftover channel is fixed. Elements are
   realised as channel maps. *)
let stabilizer ~n =
  let k = n / 2 in
  let rec perms = function
    | [] -> [ [] ]
    | xs ->
        List.concat_map
          (fun x -> List.map (fun p -> x :: p) (perms (List.filter (( <> ) x) xs)))
          xs
  in
  let pair_perms = List.map Array.of_list (perms (List.init k Fun.id)) in
  List.concat_map
    (fun sigma ->
      List.init (1 lsl k) (fun flips ->
          Array.init n (fun c ->
              if c >= 2 * k then c
              else
                let p = c / 2 and b = c land 1 in
                (2 * sigma.(p)) + (b lxor ((flips lsr p) land 1)))))
    pair_perms

let second ~n =
  if n < 2 || n > 11 then invalid_arg "Layers.second: n must be in [2, 11]";
  (* A matching is coded as an int with pair (i, j), i < j, of
     lexicographic index p at bit [npairs - 1 - p]. Every image of a
     layer has its size, and among same-size sorted pair lists the
     lexicographically least has the largest code. *)
  let npairs = n * (n - 1) / 2 in
  let bit = Array.make_matrix n n 0 in
  let p = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let b = 1 lsl (npairs - 1 - !p) in
      bit.(i).(j) <- b;
      bit.(j).(i) <- b;
      incr p
    done
  done;
  let code_under g layer =
    List.fold_left (fun acc (i, j) -> acc lor bit.(g.(i)).(g.(j))) 0 layer
  in
  let code = code_under (Array.init n Fun.id) in
  let group = stabilizer ~n in
  let all = all ~n in
  (* One pass over [all]: the first unvisited layer of an orbit pays
     for the whole orbit, marking every image visited and keeping the
     largest code as the representative. *)
  let seen = Hashtbl.create 1024 and reps = Hashtbl.create 64 in
  List.iter
    (fun layer ->
      if not (Hashtbl.mem seen (code layer)) then begin
        let best = ref 0 in
        List.iter
          (fun g ->
            let c = code_under g layer in
            Hashtbl.replace seen c ();
            if c > !best then best := c)
          group;
        Hashtbl.replace reps !best ()
      end)
    all;
  List.filter (fun l -> Hashtbl.mem reps (code l)) all

let gates layer = List.map (fun (i, j) -> Gate.compare_up i j) layer
