"""Time todvoice's set-up in a fresh interpreter and print it in seconds.

Set-up is what a run pays before its first real call: import todvoice and its
CLI, load the config and both speaker manifests, build the speaker pool and
build the clients.

    python3 bench/setup_probe.py CONFIG USER_MANIFEST ASSISTANT_MANIFEST
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

t0 = time.perf_counter()
import todvoice.cli  # noqa: E402,F401
from todvoice.pipeline import build_clients, load_config  # noqa: E402
from todvoice.speakers import build_pool, load_speaker_manifest, validate_assistant_pool  # noqa: E402

cfg = load_config(sys.argv[1])
assistants = load_speaker_manifest(sys.argv[3])
validate_assistant_pool(assistants)
build_pool(load_speaker_manifest(sys.argv[2]), {sp.speaker_id for sp in assistants})
build_clients(cfg)
print(time.perf_counter() - t0)
