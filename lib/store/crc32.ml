external digest : string -> int = "wqi_crc32_digest" [@@noalloc]
