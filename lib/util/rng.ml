type t = Random.State.t

let make seed = Random.State.make [| seed; 0x9e3779b9; seed lxor 0x5bd1e995 |]

let of_name name = make (Hashtbl.hash name)

let int t bound = Random.State.int t bound

let float t bound = Random.State.float t bound

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_distinct t k n =
  (* A negative [k] would count the rejection loop below down past 0
     forever. *)
  if k < 0 || k > n then
    invalid_arg (Printf.sprintf "Rng.sample_distinct: need 0 <= k <= n, got k=%d n=%d" k n);
  (* For small k relative to n, rejection sampling; otherwise shuffle a
     prefix of the identity permutation. *)
  if 4 * k <= n then begin
    let seen = Hashtbl.create (2 * k) in
    let rec draw acc remaining =
      if remaining = 0 then acc
      else
        let x = Random.State.int t n in
        if Hashtbl.mem seen x then draw acc remaining
        else begin
          Hashtbl.add seen x ();
          draw (x :: acc) (remaining - 1)
        end
    in
    draw [] k
  end
  else begin
    let a = Array.init n (fun i -> i) in
    shuffle t a;
    Array.to_list (Array.sub a 0 k)
  end
