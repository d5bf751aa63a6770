type evaluator = Mapping.t -> float

type result = { mapping : Mapping.t; score : float; evaluated : int }

(* Exhaustive search is cheap enough since the incremental evaluator landed
   that the auto policy can afford spaces an order of magnitude larger than
   the historical 20k before bailing to greedy+hill-climb. *)
let default_exhaustive_limit = 262_144

type par = { pmap : 'a 'b. ('a -> 'b) -> 'a list -> 'b list }

let sequential_par = { pmap = (fun f xs -> List.map f xs) }

let best_of candidates evaluator =
  match candidates with
  | [] -> invalid_arg "Search.best_of: no candidates"
  | first :: rest ->
      let count = ref 1 in
      let best =
        List.fold_left
          (fun (bm, bs) m ->
            incr count;
            let s = evaluator m in
            if s > bs then (m, s) else (bm, bs))
          (first, evaluator first) rest
      in
      { mapping = fst best; score = snd best; evaluated = !count }

let exhaustive_ref ?fix_first_on ~stages ~processors evaluator =
  best_of (Mapping.enumerate ?fix_first_on ~stages ~processors ()) evaluator

(* Generic exhaustive over the scratch-array enumeration: ascending code
   order with copy-on-improve, so the winner among equal scores is the lowest
   enumeration code — exactly the tie-break [exhaustive_ref] implements by
   folding the materialized list. *)
let exhaustive ?fix_first_on ~stages ~processors evaluator =
  let count = ref 0 in
  let best_score = ref neg_infinity in
  let best = ref [||] in
  let have = ref false in
  Mapping.iter_enumerate ?fix_first_on ~stages ~processors (fun m ->
      incr count;
      let s = evaluator m in
      if (not !have) || s > !best_score then begin
        have := true;
        best_score := s;
        best := Mapping.to_array m
      end);
  {
    mapping = Mapping.of_array ~processors !best;
    score = !best_score;
    evaluated = !count;
  }

let greedy ~stages ~processors evaluator =
  if stages <= 0 || processors <= 0 then invalid_arg "Search.greedy";
  let assignment = Array.make stages 0 in
  let evaluated = ref 0 in
  for i = 0 to stages - 1 do
    let best_processor = ref 0 and best_score = ref neg_infinity in
    for p = 0 to processors - 1 do
      assignment.(i) <- p;
      (* Remaining stages ride along on processor p for the tentative score. *)
      for j = i + 1 to stages - 1 do
        assignment.(j) <- p
      done;
      let score = evaluator (Mapping.of_array ~processors assignment) in
      incr evaluated;
      if score > !best_score then begin
        best_score := score;
        best_processor := p
      end
    done;
    assignment.(i) <- !best_processor;
    for j = i + 1 to stages - 1 do
      assignment.(j) <- !best_processor
    done
  done;
  let mapping = Mapping.of_array ~processors assignment in
  { mapping; score = evaluator mapping; evaluated = !evaluated + 1 }

let hill_climb ?(max_steps = 1000) ~start ~processors evaluator =
  let evaluated = ref 1 in
  let rec climb mapping score steps =
    if steps >= max_steps then { mapping; score; evaluated = !evaluated }
    else begin
      (* Steepest ascent over the in-place neighbour scratch; the array is
         copied only when it improves on everything seen this step, killing
         the s×(p−1) copies the materialized [neighbours] list used to pay. *)
      let best_s = ref neg_infinity in
      let best_m = ref [||] in
      Mapping.iter_neighbours mapping ~processors (fun ~stage:_ ~target:_ m ->
          incr evaluated;
          let s = evaluator m in
          if s > score && s > !best_s then begin
            best_s := s;
            best_m := Mapping.to_array m
          end);
      if !best_m = [||] then { mapping; score; evaluated = !evaluated }
      else climb (Mapping.of_array ~processors !best_m) !best_s (steps + 1)
    end
  in
  climb start (evaluator start) 0

let auto ?(exhaustive_limit = default_exhaustive_limit) ~stages ~processors evaluator =
  match Mapping.space_within ~stages ~processors ~cap:exhaustive_limit with
  | Some _ -> exhaustive ~stages ~processors evaluator
  | None ->
      let greedy_result = greedy ~stages ~processors evaluator in
      let refined = hill_climb ~start:greedy_result.mapping ~processors evaluator in
      { refined with evaluated = refined.evaluated + greedy_result.evaluated }

(* ------------------------------------------------------------------- *)
(* Spec-specialized fast paths: a table-driven branch-and-bound, and   *)
(* the chunked and hill-climbing walks on [Analytic.Incr].             *)

(* Processors [p] and [q] are interchangeable when transposing them leaves
   the spec bit-identical: equal node rates and user-link costs, and
   latency/bandwidth matrices invariant under the swap (exact float
   equality). Relabeling a mapping by such a transposition then permutes the
   station multiset without changing any station's value, so the score is
   bit-identical — the invariant canonicalization relies on. *)
let symmetric_pair (spec : Costspec.t) p q =
  let np = Costspec.processors spec in
  let matrix_swap_invariant (m : float array array) =
    m.(p).(p) = m.(q).(q)
    && m.(p).(q) = m.(q).(p)
    &&
    let ok = ref true in
    for r = 0 to np - 1 do
      if r <> p && r <> q then
        if not (m.(p).(r) = m.(q).(r) && m.(r).(p) = m.(r).(q)) then ok := false
    done;
    !ok
  in
  spec.Costspec.node_rates.(p) = spec.Costspec.node_rates.(q)
  && spec.Costspec.user_latency.(p) = spec.Costspec.user_latency.(q)
  && spec.Costspec.user_bandwidth.(p) = spec.Costspec.user_bandwidth.(q)
  && matrix_swap_invariant spec.Costspec.latency
  && matrix_swap_invariant spec.Costspec.bandwidth

(* [class_of.(p)] is the smallest processor symmetric with [p]; the pinned
   processor, when any, is frozen in its own singleton so canonicalization
   never relabels it. Checking each candidate against the class
   representative suffices: two processors individually swap-symmetric with
   the same representative are swap-symmetric with each other (their rows
   and columns all equal the representative's up to the swapped entries). *)
let symmetry_classes ?fix_first_on spec =
  let np = Costspec.processors spec in
  let class_of = Array.init np Fun.id in
  let pinned p = fix_first_on = Some p in
  for p = 0 to np - 1 do
    if class_of.(p) = p && not (pinned p) then
      for q = p + 1 to np - 1 do
        if class_of.(q) = q && (not (pinned q)) && symmetric_pair spec p q then
          class_of.(q) <- p
      done
  done;
  class_of

(* Previous member of [p]'s symmetry class in processor order, or -1 when
   [p] is its class's smallest member. Canonical (restricted-growth)
   assignments use a class member only after its predecessor appears. *)
let class_predecessors class_of =
  let np = Array.length class_of in
  let last_seen = Array.make np (-1) in
  Array.init np (fun p ->
      let c = class_of.(p) in
      let pred = last_seen.(c) in
      last_seen.(c) <- p;
      pred)

(* Minimal enumeration code of [assign] over all symmetric relabelings:
   scanning stages from the most significant digit (the last stage — codes
   are little-endian), greedily relabel each class's processors to the
   class's smallest unused member at first use. Returns the relabeled
   assignment, its code. *)
let relabel_min_code ?fix_first_on ~class_of assign =
  let ns = Array.length assign and np = Array.length class_of in
  let members = Array.make np [] in
  for p = np - 1 downto 0 do
    members.(class_of.(p)) <- p :: members.(class_of.(p))
  done;
  let label = Array.make np (-1) in
  let out = Array.make ns 0 in
  let start = match fix_first_on with Some _ -> 1 | None -> 0 in
  (match fix_first_on with Some _ -> out.(0) <- assign.(0) | None -> ());
  for i = ns - 1 downto start do
    let p = assign.(i) in
    if label.(p) < 0 then begin
      let c = class_of.(p) in
      match members.(c) with
      | next :: rest ->
          label.(p) <- next;
          members.(c) <- rest
      | [] -> assert false
    end;
    out.(i) <- label.(p)
  done;
  let code = ref 0 in
  for i = ns - 1 downto start do
    code := (!code * np) + out.(i)
  done;
  (out, !code)

let check_space ?fix_first_on ~stages ~processors ~cap () =
  let free = match fix_first_on with Some _ -> stages - 1 | None -> stages in
  match Mapping.space_within ~stages:free ~processors ~cap with
  | Some n -> n
  | None -> invalid_arg "Mapping.enumerate: assignment space too large"

(* Per-search cost tables of the branch-and-bound walk. Every entry is
   computed operation for operation as [Costspec.service_rate],
   [Costspec.move_rate] and [Analytic.stage_cycle_time] compute it, so a
   cycle station assembled from them is bit-identical to the one
   [Analytic.throughput] folds.

   - [service.((s * np + p) * ns + k - 1)]: stage [s]'s service time on
     processor [p] when [k] stages share it;
   - [move_out.((s * np + src) * np + dst)]: stage [s]'s output-move time
     from [src] to [dst], for [s < ns - 1];
   - [user_out.(src)]: the last stage's move to the user from [src];
   - [cheapest_out.(s * np + src)]: the least move-out time of stage [s]
     placed on [src], over every destination. *)
type cost_tables = {
  service : float array;
  move_out : float array;
  user_out : float array;
  cheapest_out : float array;
}

(* [Costspec]'s conventions: a non-positive time is an infinite rate, and
   [stage_cycle_time] counts an infinite rate as 0 s. [rate_of_time]
   divides by +0. rather than returning [infinity]: the same value, but
   both branches stay unboxed floats, so the hot walk does not allocate. *)
let[@inline] rate_of_time time = 1.0 /. if time <= 0.0 then 0.0 else time
let[@inline] time_of_rate rate = if rate = infinity then 0.0 else 1.0 /. rate

(* The lesser of two stations, as [Analytic.bottleneck]'s fold picks it. *)
let[@inline] lower (a : float) b = if b < a then b else a

(* The tables are filled by loops, not [Array.init], whose closure would
   box every float it returns. *)
let cost_tables (spec : Costspec.t) =
  let ns = Costspec.stages spec and np = Costspec.processors spec in
  let work = spec.Costspec.stage_work and out_bytes = spec.Costspec.output_bytes in
  let service = Array.make (ns * np * ns) 0.0 in
  for s = 0 to ns - 1 do
    let w = work.(s) in
    for p = 0 to np - 1 do
      for k = 1 to ns do
        service.((((s * np) + p) * ns) + k - 1) <-
          (if w <= 0.0 then 0.0
           else time_of_rate (spec.Costspec.node_rates.(p) /. (w *. Float.of_int k)))
      done
    done
  done;
  let move_out = Array.make (max 0 (ns - 1) * np * np) 0.0 in
  let cheapest_out = Array.make (ns * np) infinity in
  for s = 0 to ns - 2 do
    for src = 0 to np - 1 do
      for dst = 0 to np - 1 do
        let time =
          time_of_rate
            (rate_of_time (Costspec.transfer_cost spec ~src ~dst ~bytes:out_bytes.(s)))
        in
        move_out.((((s * np) + src) * np) + dst) <- time;
        cheapest_out.((s * np) + src) <- lower cheapest_out.((s * np) + src) time
      done
    done
  done;
  let user_out = Array.make np 0.0 in
  if ns > 0 then
    for src = 0 to np - 1 do
      let time =
        time_of_rate
          (rate_of_time
             (spec.Costspec.user_latency.(src)
             +. (out_bytes.(ns - 1) /. spec.Costspec.user_bandwidth.(src))))
      in
      user_out.(src) <- time;
      cheapest_out.(((ns - 1) * np) + src) <- time
    done;
  { service; move_out; user_out; cheapest_out }

(* Branch-and-bound DFS over assignment prefixes. Stages are assigned in
   increasing index order, so the per-processor work sums the walk carries
   are stage-order left folds — prefixes of the exact sums
   [Analytic.stations] computes — and a leaf is scored exactly from them
   plus the cost tables.

   A prefix's bound is the least of the stations it already caps:

   - every processor's capacity station (node_rate / work-so-far): adding
     work only lowers it;
   - stage s−1's cycle station once stage s is placed, at the sharing count
     of its processor so far;
   - stage s's cycle station with its cheapest move-out.

   A sharing count only grows as stages are added, and every IEEE
   operation in a cycle time is monotone (product, quotient, reciprocal,
   sum), so each of these is an upper bound, {e in float arithmetic}, on
   the corresponding station of every leaf below the prefix. Children are
   visited best bound first; pruning is on strict [bound < best] only, and
   ties between leaves are broken by enumeration code, not by visit order,
   so the walk returns the lowest-code winner whatever order it finds it
   in. *)
let exhaustive_spec ?fix_first_on ?(prune = true) ?(canonical = true) spec =
  let ns = Costspec.stages spec and np = Costspec.processors spec in
  ignore (check_space ?fix_first_on ~stages:ns ~processors:np ~cap:Mapping.max_enumeration ());
  let start = match fix_first_on with Some _ -> 1 | None -> 0 in
  (match fix_first_on with
  | Some p when p < 0 || p >= np -> invalid_arg "Mapping.enumerate: fix_first_on out of range"
  | _ -> ());
  let class_of = if canonical then symmetry_classes ?fix_first_on spec else Array.init np Fun.id in
  (* Canonicalization only pays when at least one class has two members;
     fully heterogeneous specs take the plain pruned walk. *)
  let canonical =
    canonical
    &&
    let nontrivial = ref false in
    Array.iteri (fun p c -> if c <> p then nontrivial := true) class_of;
    !nontrivial
  in
  let pred = class_predecessors class_of in
  let work = spec.Costspec.stage_work and rates = spec.Costspec.node_rates in
  let { service; move_out; user_out; cheapest_out } = cost_tables spec in
  let assign = Array.make ns 0 in
  let count = Array.make np 0 in
  let pwork = Array.make np 0.0 in
  (* Per depth s (stages < s placed): [pmin] is the least processor station
     — exact at a leaf, since a processor's station only falls as work is
     added — and [bound] adds the cycle bounds. *)
  let pmin = Array.make (ns + 1) infinity in
  let bound = Array.make (ns + 1) infinity in
  (* The children of the depth-s prefix, at offset [s * np], best bound
     first: processor, its [pmin], its [bound]. *)
  let kid = Array.make (ns * np) 0 in
  let kid_pmin = Array.make (ns * np) 0.0 in
  let kid_bound = Array.make (ns * np) 0.0 in
  (match fix_first_on with
  | Some p ->
      assign.(0) <- p;
      count.(p) <- 1;
      pwork.(p) <- 0.0 +. work.(0);
      pmin.(1) <- (if pwork.(p) <= 0.0 then infinity else rates.(p) /. pwork.(p));
      bound.(1) <- lower pmin.(1) (rate_of_time (service.(p * ns) +. cheapest_out.(p)))
  | None -> ());
  let pow = Array.make (ns - start) 1 in
  for k = 1 to ns - start - 1 do
    pow.(k) <- pow.(k - 1) * np
  done;
  let scored = ref 0 in
  let have = ref false in
  let best_score = ref neg_infinity in
  let best_code = ref max_int in
  let best_assign = ref [||] in
  let leaf code =
    incr scored;
    (* The processor stations, then every stage's cycle station at its
       final sharing count; stop once the leaf provably loses. *)
    let score = ref pmin.(ns) in
    let s = ref 0 in
    while !s < ns && not (!have && !score < !best_score) do
      let p = assign.(!s) in
      let out =
        if !s = ns - 1 then user_out.(p) else move_out.((((!s * np) + p) * np) + assign.(!s + 1))
      in
      score := lower !score (rate_of_time (service.((((!s * np) + p) * ns) + count.(p) - 1) +. out));
      incr s
    done;
    let score = !score in
    if (not !have) || score >= !best_score then begin
      if canonical then begin
        (* The representative's score is the whole symmetry class's score;
           rank the class by its minimal-code member so the winner is the
           same assignment the plain ascending-code walk returns. *)
        let relabeled, ccode = relabel_min_code ?fix_first_on ~class_of assign in
        if (not !have) || score > !best_score || ccode < !best_code then begin
          have := true;
          best_score := score;
          best_code := ccode;
          best_assign := relabeled
        end
      end
      else if (not !have) || score > !best_score || code < !best_code then begin
        have := true;
        best_score := score;
        best_code := code;
        best_assign := Array.copy assign
      end
    end
  in
  (* [best_score] only rises, so a child whose bound already loses
     ([prune && !have && bound < !best_score]) is dropped before it is
     ranked, and the best-first visit stops at the first child that
     loses. *)
  let rec dfs s code =
    if s = ns then leaf code
    else begin
      let base = s * np in
      let n = ref 0 in
      for q = 0 to np - 1 do
        if (not canonical) || pred.(q) < 0 || count.(pred.(q)) > 0 then begin
          let w = pwork.(q) +. work.(s) in
          let pm = if w <= 0.0 then pmin.(s) else lower pmin.(s) (rates.(q) /. w) in
          let sharing = count.(q) + 1 in
          let own =
            rate_of_time (service.(((base + q) * ns) + sharing - 1) +. cheapest_out.(base + q))
          in
          let b = lower (lower bound.(s) pm) own in
          let b =
            if s = 0 then b
            else begin
              let p = assign.(s - 1) in
              let sharing = if p = q then sharing else count.(p) in
              let up = ((s - 1) * np) + p in
              lower b (rate_of_time (service.((up * ns) + sharing - 1) +. move_out.((up * np) + q)))
            end
          in
          if not (prune && !have && b < !best_score) then begin
            (* Insertion into the best-first order; equal bounds keep
               processor order. *)
            let j = ref !n in
            while !j > 0 && kid_bound.(base + !j - 1) < b do
              kid.(base + !j) <- kid.(base + !j - 1);
              kid_pmin.(base + !j) <- kid_pmin.(base + !j - 1);
              kid_bound.(base + !j) <- kid_bound.(base + !j - 1);
              decr j
            done;
            kid.(base + !j) <- q;
            kid_pmin.(base + !j) <- pm;
            kid_bound.(base + !j) <- b;
            incr n
          end
        end
      done;
      let j = ref 0 in
      while !j < !n && not (prune && !have && kid_bound.(base + !j) < !best_score) do
        let q = kid.(base + !j) in
        let saved = pwork.(q) in
        pwork.(q) <- saved +. work.(s);
        count.(q) <- count.(q) + 1;
        assign.(s) <- q;
        pmin.(s + 1) <- kid_pmin.(base + !j);
        bound.(s + 1) <- kid_bound.(base + !j);
        dfs (s + 1) (code + (q * pow.(s - start)));
        count.(q) <- count.(q) - 1;
        pwork.(q) <- saved;
        incr j
      done
    end
  in
  dfs start 0;
  {
    mapping = Mapping.of_array ~processors:np !best_assign;
    score = !best_score;
    evaluated = !scored;
  }

(* Best (score, code) over the contiguous code range [lo, hi), walking the
   odometer with one [Incr.move] per changed digit. Within a chunk the visit
   order is ascending code, so first-wins ties are lowest-code ties. *)
let search_range ?fix_first_on spec ~lo ~hi =
  let ns = Costspec.stages spec and np = Costspec.processors spec in
  let start = match fix_first_on with Some _ -> 1 | None -> 0 in
  let scratch = Mapping.to_array (Mapping.decode ?fix_first_on ~stages:ns ~processors:np lo) in
  let st = Analytic.Incr.create spec (Mapping.of_array ~processors:np scratch) in
  let best_score = ref (Analytic.Incr.score st) in
  let best_code = ref lo in
  for code = lo + 1 to hi - 1 do
    let i = ref start in
    while scratch.(!i) = np - 1 do
      scratch.(!i) <- 0;
      Analytic.Incr.move st ~stage:!i 0;
      incr i
    done;
    scratch.(!i) <- scratch.(!i) + 1;
    Analytic.Incr.move st ~stage:!i scratch.(!i);
    let s = Analytic.Incr.score st in
    if s > !best_score then begin
      best_score := s;
      best_code := code
    end
  done;
  (!best_score, !best_code)

let default_chunks total = if total >= 32_768 then 32 else 1

let exhaustive_par ?fix_first_on ?(par = sequential_par) ?chunks spec =
  let ns = Costspec.stages spec and np = Costspec.processors spec in
  let total = check_space ?fix_first_on ~stages:ns ~processors:np ~cap:Mapping.max_enumeration () in
  let chunks = max 1 (min (match chunks with Some c -> c | None -> default_chunks total) total) in
  let size = (total + chunks - 1) / chunks in
  let ranges =
    List.init chunks (fun i ->
        let lo = i * size in
        (lo, min total (lo + size)))
    |> List.filter (fun (lo, hi) -> lo < hi)
  in
  let results = par.pmap (fun (lo, hi) -> search_range ?fix_first_on spec ~lo ~hi) ranges in
  (* Chunks are merged in ascending range order with a strict improvement
     test, so equal scores resolve to the earliest chunk — i.e. the lowest
     code, independent of how [par.pmap] scheduled the chunks. *)
  let best_score, best_code =
    match results with
    | [] -> invalid_arg "Search.exhaustive_par: empty space"
    | first :: rest ->
        List.fold_left
          (fun (bs, bc) (s, c) -> if s > bs then (s, c) else (bs, bc))
          first rest
  in
  {
    mapping = Mapping.decode ?fix_first_on ~stages:ns ~processors:np best_code;
    score = best_score;
    evaluated = total;
  }

(* Steepest-ascent hill climb on the incremental evaluator: neighbour moves
   are probed as move/undo pairs on one [Incr] state. Neighbour order and
   tie-breaks replicate [hill_climb] exactly, and [Incr] scores are
   bit-identical to the full evaluator, so the trajectory — and therefore
   the result — matches the generic climb on [Analytic.throughput]. *)
let hill_climb_spec ?(max_steps = 1000) ~start spec =
  let np = Costspec.processors spec in
  let ns = Costspec.stages spec in
  let st = Analytic.Incr.create spec start in
  let evaluated = ref 1 in
  let score = ref (Analytic.Incr.score st) in
  let steps = ref 0 in
  let improved = ref true in
  while !improved && !steps < max_steps do
    let best_s = ref neg_infinity and best_stage = ref (-1) and best_q = ref (-1) in
    for i = 0 to ns - 1 do
      let p = Analytic.Incr.assignment st i in
      for q = 0 to np - 1 do
        if q <> p then begin
          Analytic.Incr.move st ~stage:i q;
          incr evaluated;
          let s = Analytic.Incr.score st in
          if s > !score && s > !best_s then begin
            best_s := s;
            best_stage := i;
            best_q := q
          end;
          Analytic.Incr.move st ~stage:i p
        end
      done
    done;
    if !best_stage >= 0 then begin
      Analytic.Incr.move st ~stage:!best_stage !best_q;
      score := !best_s;
      incr steps
    end
    else improved := false
  done;
  { mapping = Analytic.Incr.mapping st; score = !score; evaluated = !evaluated }

let auto_spec ?(exhaustive_limit = default_exhaustive_limit) ?fix_first_on ?par spec =
  let ns = Costspec.stages spec and np = Costspec.processors spec in
  let free = match fix_first_on with Some _ -> ns - 1 | None -> ns in
  match Mapping.space_within ~stages:free ~processors:np ~cap:exhaustive_limit with
  | Some total ->
      (match par with
      | Some par when total >= 32_768 -> exhaustive_par ?fix_first_on ~par spec
      | _ -> exhaustive_spec ?fix_first_on spec)
  | None ->
      let evaluator m = Analytic.throughput spec m in
      let greedy_result = greedy ~stages:ns ~processors:np evaluator in
      let refined = hill_climb_spec ~start:greedy_result.mapping spec in
      { refined with evaluated = refined.evaluated + greedy_result.evaluated }
