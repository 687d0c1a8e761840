module Env = Wip_storage.Env

let claim env ~name ~shards =
  let file = name ^ ".shards" in
  if shards < 1 then Error (Printf.sprintf "need at least 1 shard, not %d" shards)
  else if Env.exists env file then begin
    let r = Env.open_file env file in
    let body =
      Fun.protect
        ~finally:(fun () -> Env.close_reader r)
        (fun () -> Env.read_all r ~category:Manifest)
    in
    match int_of_string_opt (String.trim body) with
    | Some n when n = shards -> Ok ()
    | Some n ->
      Error
        (Printf.sprintf
           "%s: the store was created with %d shards, not %d; reopen it with \
            %d"
           file n shards n)
    | None -> Error (Printf.sprintf "%s: unreadable shard count %S" file body)
  end
  else begin
    let tmp = file ^ ".tmp" in
    let w = Env.create_file env tmp in
    Env.append w ~category:Manifest (string_of_int shards ^ "\n");
    Env.sync w;
    Env.close_writer w;
    Env.rename env ~src:tmp ~dst:file;
    Ok ()
  end
