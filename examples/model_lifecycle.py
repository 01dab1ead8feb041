#!/usr/bin/env python
"""Model lifecycle walkthrough: train -> publish -> serve -> retrain -> hot swap.

The paper's FPGA reprograms its Bloom engines with new language profiles
without touching the host pipeline.  This demo is the software twin of that
reprogramming path, end to end:

1. stream a corpus through :class:`repro.registry.StreamingTrainer` (bounded
   accumulators — constant memory no matter the corpus size) and publish the
   result as ``v000001`` in a :class:`repro.registry.ModelRegistry`,
2. start a :class:`repro.serve.ClassificationService` from the registry and
   put sustained classification load through it,
3. ``extend()`` the same trainer with freshly arrived documents and publish
   the child version (lineage recorded in its manifest),
4. hot-swap the running service onto the child with
   :class:`repro.registry.ModelSwitch` — the new model takes over between
   two batches, the load never stops, and every response stays
   bit-identical to one published version,
5. garbage-collect old versions while the active one stays pinned.

Run with:  python examples/model_lifecycle.py
"""

import asyncio
import tempfile
from pathlib import Path

from repro import ClassifierConfig, build_jrc_acquis_like
from repro.registry import ModelRegistry, ModelSwitch, StreamingTrainer
from repro.serve import ClassificationService, ServeConfig

LANGUAGES = ["en", "fr", "es", "pt"]
CONFIG = ClassifierConfig(t=1500, m_bits=8 * 1024, k=4, seed=1)


def document_stream(seed: int):
    """A lazily generated (language, text) feed, as arriving off the wire."""
    corpus = build_jrc_acquis_like(
        languages=LANGUAGES, docs_per_language=25, words_per_document=180, seed=seed
    )
    for document in corpus:
        yield document.language, document.text


async def lifecycle(registry_dir: Path) -> None:
    # -- 1. stream-train the first version and publish it ------------------
    trainer = StreamingTrainer(CONFIG)
    trainer.feed(document_stream(seed=7))
    registry = ModelRegistry(registry_dir)
    v1 = registry.publish(trainer.build(), corpus_stats=trainer.stats())
    print(f"published {v1.name}  fingerprint={v1.fingerprint[:12]}…")

    # -- 2. serve it, with sustained load from a background pump -----------
    held_out = build_jrc_acquis_like(
        languages=LANGUAGES, docs_per_language=3, words_per_document=120, seed=99
    )
    texts = [doc.text[:400] for doc in held_out.documents]
    config = ServeConfig(max_batch=16, max_delay_ms=1.0, cache_size=0)
    service = ClassificationService(registry.load(v1.version), config, model_version=v1.name)
    service.switch = ModelSwitch(service, registry)

    served, stop = [], asyncio.Event()

    async def pump():
        index = 0
        while not stop.is_set():
            result = await service.classify(texts[index % len(texts)])
            served.append(result.language)
            index += 1
            await asyncio.sleep(0)

    async with service:
        pump_task = asyncio.create_task(pump())
        await asyncio.sleep(0.1)
        before_swap = len(served)
        print(f"serving {v1.name}: {before_swap} responses and counting…")

        # -- 3. new documents arrive: extend the trainer, publish the child
        child_model = trainer.extend(document_stream(seed=19))
        v2 = registry.publish(
            child_model, parent=v1.version, corpus_stats=trainer.stats()
        )
        print(f"published {v2.name}  parent={v2.parent}")

        # -- 4. hot swap under load, between two batches -------------------
        report = await service.switch.swap_to("latest")
        await asyncio.sleep(0.1)
        stop.set()
        await pump_task
        print(
            f"swapped {report['from']['version']} -> {report['to']['version']} "
            f"(cache entries evicted: {report['cache_entries_evicted']}) "
            f"with {len(served) - before_swap} more responses served meanwhile"
        )
        health = service.describe()
        print(
            f"service now reports model_version={health['model_version']} "
            f"after {health['model_swaps_total']} swap(s), "
            f"{len(served)} total responses, zero dropped"
        )

    # -- 5. housekeeping: the active version can never be collected --------
    removable = registry.gc(keep=1, dry_run=True)
    print(f"gc --keep 1 would remove: {removable or 'nothing'} (LATEST is pinned)")
    for record in registry.list():
        print(f"  {record.name}  languages={len(record.languages)}  parent={record.parent}")


def main() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        asyncio.run(lifecycle(Path(scratch) / "registry"))


if __name__ == "__main__":
    main()
